//! Migration regression: the Scenario/Runner pipeline reproduces a
//! recorded harness output byte-for-byte.
//!
//! `tests/golden/migration-panel-{0,1}.csv` hold two Fig. 6/7 panels — one
//! random, one localized — with `--quick` simulator settings, first
//! generated by the old `run_panel`/`panel_table` harness and pinned again
//! when same-cycle flit moves began to apply in ascending channel order
//! (the simulated columns moved; the model columns did not). The same
//! panels expressed as [`Scenario`]s and executed by the [`Runner`] must
//! emit identical CSV: same saturation-relative sweep resolution, same
//! seeds, same simulation, same formatting.

use quarc_noc::bench::harness::{FigureConfig, Pattern};
use quarc_noc::prelude::*;

fn check_panel(cfg: FigureConfig, golden_file: &str) {
    let scenario = cfg.scenario(3, SimConfig::quick(cfg.seed));
    let result = Runner::new()
        .threads(2)
        .run(&scenario)
        .expect("panel scenario runs");
    let golden_path = format!("{}/tests/golden/{golden_file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&golden_path).expect("golden CSV exists");
    assert_eq!(
        result.to_csv(),
        golden,
        "{}: Runner output diverged from the recorded panel",
        cfg.label()
    );
}

#[test]
fn random_panel_reproduces_pre_redesign_csv_byte_for_byte() {
    check_panel(
        FigureConfig {
            n: 16,
            msg_len: 16,
            alpha: 0.05,
            group_size: 4,
            pattern: Pattern::Random,
            seed: 42,
        },
        "migration-panel-0.csv",
    );
}

#[test]
fn localized_panel_reproduces_pre_redesign_csv_byte_for_byte() {
    check_panel(
        FigureConfig {
            n: 16,
            msg_len: 16,
            alpha: 0.10,
            group_size: 2,
            pattern: Pattern::Localized,
            seed: 7,
        },
        "migration-panel-1.csv",
    );
}
