//! E2 — Lemma 2 / Corollary 3: `E[d̃] = d` on every topology.
//!
//! The paper's unbiasedness argument needs only regularity (uniform
//! placement is stationary). We check the grand mean of `d̃` against `d`
//! on every analysed topology family, reporting the ratio and a
//! 5-standard-error band.

use super::util;
use crate::report::{Effort, ExperimentReport};
use antdensity_engine::TopologySpec;
use antdensity_stats::table::{format_sig, Table};

fn check(
    name: &str,
    topology: TopologySpec,
    num_agents: usize,
    rounds: u64,
    runs: u64,
    seed: u64,
    table: &mut Table,
) -> bool {
    let nodes = topology.num_nodes();
    let d = (num_agents as f64 - 1.0) / nodes as f64;
    let (mean, se, _) = util::scenario_mean_estimate(topology, num_agents, rounds, runs, seed);
    let ratio = mean / d;
    let ok = (mean - d).abs() <= 5.0 * se + 1e-9;
    table.row_owned(vec![
        name.to_string(),
        nodes.to_string(),
        format_sig(d, 4),
        format_sig(mean, 5),
        format_sig(ratio, 4),
        format_sig(se, 5),
        if ok { "pass" } else { "FAIL" }.to_string(),
    ]);
    ok
}

/// Runs E2.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "e2",
        "Lemma 2 / Corollary 3: the encounter rate is an unbiased density estimator",
    );
    let runs = effort.trials(8, 40);
    let rounds = effort.size(128, 512);
    let mut table = Table::new(
        "unbiasedness",
        &[
            "topology",
            "A",
            "d",
            "mean_estimate",
            "ratio",
            "std_err",
            "within_5se",
        ],
    );

    let mut all_ok = true;
    let regular = TopologySpec::CsrRegular {
        nodes: 1024,
        degree: 8,
    };
    for (name, topology, num_agents, salt) in [
        ("torus2d_32", TopologySpec::Torus2d { side: 32 }, 103, 1),
        ("ring_1024", TopologySpec::Ring { nodes: 1024 }, 103, 2),
        (
            "torus3d_10",
            TopologySpec::TorusKd { dims: 3, side: 10 },
            101,
            3,
        ),
        ("hypercube_10", TopologySpec::Hypercube { dims: 10 }, 103, 4),
        (
            "complete_1024",
            TopologySpec::Complete { nodes: 1024 },
            103,
            5,
        ),
        ("regular8_1024", regular, 103, 7),
    ] {
        all_ok &= check(
            name,
            topology,
            num_agents,
            rounds,
            runs,
            seed ^ salt,
            &mut table,
        );
    }

    table.note("paper: ratio = 1 exactly in expectation on every regular graph");
    report.push_table(table);
    report.finding(format!(
        "grand-mean estimate within 5 standard errors of d on all 6 topologies: {}",
        if all_ok { "yes" } else { "NO — investigate" }
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_unbiased_everywhere() {
        let r = run(Effort::Quick, 3);
        assert_eq!(r.tables[0].num_rows(), 6);
        // every row passes
        for row in r.tables[0].rows() {
            assert_eq!(row.last().unwrap(), "pass", "row {row:?}");
        }
    }
}
