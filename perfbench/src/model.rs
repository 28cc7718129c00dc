//! The oracle: a `BTreeMap` model of the dictionary, plus the history of
//! inserted keys that deletes and lookup hits are drawn from.

use std::collections::{BTreeMap, HashSet};

use gpu_lsm::{Key, Op, UpdateBatch, Value};

use crate::util::{Digest, Rng};

#[derive(Debug, Clone, Default)]
pub struct Model {
    pub map: BTreeMap<Key, Value>,
    /// Every key ever inserted, live or deleted since.
    pub inserted: Vec<Key>,
}

impl Model {
    pub fn apply(&mut self, batch: &UpdateBatch) {
        for op in batch.ops() {
            match *op {
                Op::Insert(k, v) => {
                    if self.map.insert(k, v).is_none() {
                        self.inserted.push(k);
                    }
                }
                Op::Delete(k) => {
                    self.map.remove(&k);
                }
            }
        }
    }

    /// A live key, drawn from the insertion history.
    pub fn resident(&self, rng: &mut Rng) -> Key {
        loop {
            let k = self.inserted[rng.below(self.inserted.len() as u64) as usize];
            if self.map.contains_key(&k) {
                return k;
            }
        }
    }

    pub fn absent(&self, rng: &mut Rng) -> Key {
        loop {
            let k = rng.key();
            if !self.map.contains_key(&k) {
                return k;
            }
        }
    }

    /// One batch of `size` distinct keys: `deletes` live keys deleted, the
    /// rest fresh uniform inserts.  The model is not changed.
    pub fn update_batch(
        &self,
        rng: &mut Rng,
        size: usize,
        deletes: usize,
        digest: &mut Digest,
    ) -> UpdateBatch {
        let mut seen = HashSet::with_capacity(size);
        let mut batch = UpdateBatch::with_capacity(size);
        while seen.len() < deletes {
            let k = self.resident(rng);
            if seen.insert(k) {
                batch.delete(k);
                digest.add(k);
            }
        }
        while seen.len() < size {
            let k = rng.key();
            if seen.insert(k) {
                let v = rng.value();
                batch.insert(k, v);
                digest.add(k);
            }
        }
        batch
    }
}
