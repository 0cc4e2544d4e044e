//! The exhibits behind `noc-bench <exhibit>` and the sink helpers they
//! share.

pub mod ablations;
pub mod assumptions;
pub mod closedloop;
pub mod extensions;
pub mod heatmap;
pub mod paper;
pub mod scale;

use noc_bench::cli::Options;
use noc_bench::{Result, ScenarioResult};
use noc_topology::TopologySpec;
use noc_workloads::table::Table;

const QUARC_16: TopologySpec = TopologySpec::Quarc { n: 16 };
const MESH_4X4: TopologySpec = TopologySpec::Mesh {
    width: 4,
    height: 4,
};
const TORUS_4X4: TopologySpec = TopologySpec::Torus {
    width: 4,
    height: 4,
};

/// The labelled panels the subsystem exhibits (`fig-closedloop`,
/// `fig-heatmap`) run on.
const PANELS: [(&str, TopologySpec); 2] = [("quarc-n16", QUARC_16), ("mesh-4x4", MESH_4X4)];

/// Print `table` aligned, write it as `<out>/<file>` and announce the
/// path. A table that cannot be written fails the exhibit.
fn emit(opts: &Options, file: &str, table: &Table) -> Result<()> {
    println!("{}", table.to_aligned());
    let path = opts.write_file(file, &table.to_csv())?;
    println!("wrote {}", path.display());
    Ok(())
}

/// With `--json`, write the full structured result next to the CSVs and
/// announce the path.
fn emit_json(opts: &Options, result: &ScenarioResult) -> Result<()> {
    if opts.json {
        let path = result.write_json(&opts.out)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}
