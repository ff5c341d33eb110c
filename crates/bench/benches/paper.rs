//! Regenerates the paper's evaluation: prints every experiment of
//! `flint_bench::EXPERIMENTS`, or only the ones named after `--`, and
//! writes each to `results/<name>.json`.
//!
//! ```sh
//! cargo bench -p flint-bench --bench paper
//! cargo bench -p flint-bench --bench paper -- fig08 tab_storage_cost
//! ```

use flint_bench::{experiment, run_and_save, EXPERIMENTS};

fn main() {
    // `cargo bench` passes `--bench`; every other argument is a name.
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    for name in &names {
        if let Err(msg) = experiment(name) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
    for &(name, f) in EXPERIMENTS {
        if names.is_empty() || names.iter().any(|n| n == name) {
            run_and_save(name, f);
        }
    }
}
