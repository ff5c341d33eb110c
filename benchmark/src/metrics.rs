//! The per-layer metric table of one run.

use std::collections::BTreeMap;

use crate::spec::PER_LAYER;

/// Per-layer values by name. Every name must be declared in
/// [`PER_LAYER`]; metrics a workload does not touch stay 0.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "per-layer metric `{name}` is not declared in spec.rs"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}
