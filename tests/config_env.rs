//! The `LSM_*` environment has one reader: `LsmConfig::from_env` in
//! `crates/core/src/config.rs`, which every public constructor resolves
//! through once.  These tests guard that: no other library source reads an
//! `LSM_*` variable, and a malformed variable fails construction instead of
//! being quietly replaced by a default.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use gpu_lsm::{AdmissionConfig, GpuLsm, LsmConfig, LsmError, ShardedLsm};
use gpu_sim::{Device, DeviceConfig};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn only_config_rs_reads_lsm_env_vars() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let allowed = root.join("crates/core/src/config.rs");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.contains(&allowed), "the scan must cover config.rs");
    let needles = ["env::var(\"LSM_", "env::var_os(\"LSM_"];
    let mut offenders = Vec::new();
    for file in files.iter().filter(|f| **f != allowed) {
        let text = std::fs::read_to_string(file).unwrap();
        for (i, line) in text.lines().enumerate() {
            if needles.iter().any(|n| line.contains(n)) {
                offenders.push(format!("{}:{}", file.display(), i + 1));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "LSM_* variables must be read through LsmConfig::from_env only: {offenders:?}"
    );
}

/// Runs itself in a child process with `LSM_ADMIT_QUEUE=4o96` (setting a
/// variable in this multi-threaded test process would race the other
/// tests); the child asserts that every public constructor refuses it.
#[test]
fn malformed_env_value_fails_construction() {
    const VAR: &str = "LSM_ADMIT_QUEUE";
    const BAD: &str = "4o96";
    if std::env::var(VAR).as_deref() == Ok(BAD) {
        let device = Arc::new(Device::new(DeviceConfig::small()));
        let is_bad_env = |err: LsmError| {
            matches!(&err, LsmError::InvalidEnvValue { var, value, .. }
                if var == VAR && value == BAD)
        };
        assert!(is_bad_env(GpuLsm::new(device.clone(), 16).unwrap_err()));
        assert!(is_bad_env(
            GpuLsm::bulk_build(device.clone(), 16, &[(1, 1)]).unwrap_err()
        ));
        assert!(is_bad_env(
            ShardedLsm::new(device.clone(), 16, 2).unwrap_err()
        ));
        assert!(is_bad_env(
            ShardedLsm::with_config(device, 16, 2, LsmConfig::default()).unwrap_err()
        ));
        // The admission defaults are constants, not a second reader.
        assert_eq!(AdmissionConfig::default().queue_capacity, 64);
        return;
    }
    let child = Command::new(std::env::current_exe().unwrap())
        .args(["malformed_env_value_fails_construction", "--exact"])
        .env(VAR, BAD)
        .output()
        .unwrap();
    let ran = String::from_utf8_lossy(&child.stdout).contains("1 passed");
    assert!(
        child.status.success() && ran,
        "child run with {VAR}={BAD} failed:\n{}{}",
        String::from_utf8_lossy(&child.stdout),
        String::from_utf8_lossy(&child.stderr)
    );
}
