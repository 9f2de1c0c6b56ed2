//! Exit codes of the `experiments` binary on paths it cannot use.

use std::path::Path;
use std::process::Command;

#[test]
fn an_unwritable_output_path_exits_2() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir").join("x.json");
    assert!(!out.parent().expect("a parent directory").exists());
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["trace", "--quick", "--out"])
        .arg(&out)
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(&format!("cannot write {}: ", out.display())), "stderr: {stderr}");
}
