//! `cgpa-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress and named metrics, then one JSON result as the last
//! line of standard output. Exits 1 when any check failed, 2 on bad
//! arguments.

use cgpa_perfbench::run::{run, Args, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
