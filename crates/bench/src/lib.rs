//! The Flint benchmark harness: one experiment per table/figure of the
//! paper's evaluation (§5), plus ablations.
//!
//! Every experiment is a plain function returning a [`Table`], listed
//! once in [`EXPERIMENTS`] under the stem of the `results/<name>.json` it
//! writes. `flint experiment NAME` prints one; `cargo bench -p flint-bench
//! --bench paper [-- NAME…]` prints and saves them all (or the ones
//! named), so one command regenerates the entire evaluation. Tests call
//! the same functions and assert the paper's *directional* claims (who
//! wins, by roughly what factor), which keeps the reproduction honest
//! under refactoring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ablations;
mod exp_engine;
mod exp_market;
mod exp_model;
mod setups;
mod table;

pub use table::Table;

/// An experiment: its name, which is its `results/` file stem, and the
/// function that computes its table.
pub(crate) type Experiment = (&'static str, fn() -> Table);

/// Every experiment. This is the only list of them: `flint experiment`,
/// its `--help` and `benches/paper.rs` all read it.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig02a", exp_market::fig02a_ec2_availability),
    ("fig02b", exp_market::fig02b_gce_availability),
    ("fig03", exp_engine::fig03_memory_pressure),
    ("fig04", exp_market::fig04_correlation),
    ("fig06a", exp_engine::fig06a_ckpt_tax),
    ("fig06b", exp_engine::fig06b_system_ckpt),
    ("fig06c", exp_engine::fig06c_volatility),
    ("fig07", exp_engine::fig07_single_revocation),
    ("fig08", exp_engine::fig08_concurrent_failures),
    ("fig09", exp_engine::fig09_interactive),
    ("fig10a", exp_model::fig10a_mttf_sweep),
    ("fig10b", exp_model::fig10b_flint_vs_spark),
    ("fig11a", exp_model::fig11a_unit_cost),
    ("fig11b", exp_model::fig11b_bid_sweep),
    ("tab_multi_az", exp_engine::tab_multi_az),
    ("tab_storage_cost", exp_model::tab_storage_cost),
    ("ablation_fixed_tau", ablations::ablation_fixed_tau),
    ("ablation_adaptive_vs_periodic", ablations::ablation_adaptive_vs_periodic),
    ("ablation_shuffle_fastpath", ablations::ablation_shuffle_fastpath),
    ("ablation_market_count", ablations::ablation_market_count),
    ("ablation_bid_stratification", ablations::ablation_bid_stratification),
    ("ext_streaming", ablations::ext_streaming_latency),
    ("ablation_portfolio", ablations::ablation_portfolio),
    ("ablation_backend", ablations::ablation_backend),
];

/// The experiment called `name` in [`EXPERIMENTS`], or an error that
/// lists every name.
pub fn experiment(name: &str) -> Result<fn() -> Table, String> {
    match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        Some(&(_, f)) => Ok(f),
        None => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            Err(format!(
                "unknown experiment: {name} (expected one of {})",
                names.join(" ")
            ))
        }
    }
}

/// Runs an experiment function, prints its table, and persists JSON under
/// `results/` (relative to the workspace root).
pub fn run_and_save(name: &str, f: impl FnOnce() -> Table) {
    let started = std::time::Instant::now();
    let table = f();
    println!("{table}");
    let elapsed = started.elapsed();
    println!("[{name}] completed in {:.1}s (wall)", elapsed.as_secs_f64());
    if let Err(e) = table.save_json(name) {
        eprintln!("[{name}] could not write results JSON: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names are unique, and every committed `results/*.json` is named
    /// by its stem, so `flint experiment <stem>` regenerates it.
    #[test]
    fn experiment_names_are_unique_and_cover_results() {
        for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|(n, _)| n != name),
                "{name} twice"
            );
        }
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut checked = 0;
        for entry in std::fs::read_dir(results).expect("results/ is committed") {
            let file = entry.expect("results/ entry").file_name();
            let file = file.to_str().expect("UTF-8 file name");
            if let Some(stem) = file.strip_suffix(".json") {
                experiment(stem).expect(file);
                checked += 1;
            }
        }
        assert!(checked > 0, "no results/*.json found");
    }
}
