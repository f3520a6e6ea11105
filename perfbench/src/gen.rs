//! Seeded workload inputs: every spec and job stream is a pure function
//! of the workload seed, so two runs with one seed feed the program the
//! same bytes.

use antdensity_stats::rng::SeedSequence;
use antdensity_sweep::SweepJob;

/// Input draws: draw `i` is `SeedSequence::new(seed).derive(i)`.
#[derive(Debug, Clone)]
pub struct Rng {
    seq: SeedSequence,
    drawn: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self {
            seq: SeedSequence::new(seed),
            drawn: 0,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.drawn += 1;
        self.seq.derive(self.drawn)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A sweep master seed: positive and readable in a spec file.
    fn spec_seed(&mut self) -> u64 {
        1 + self.below(1_000_000_000)
    }
}

/// The `alg1_accuracy` table shape with many trials: populations of
/// 20–205 agents, so per-round fixed costs dominate.
pub fn alg1_table_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    format!(
        "name = alg1_table\n\
         seed = {}\n\
         trials = 256\n\
         topology = torus2d:32, ring:1024, hypercube:10, complete:1024\n\
         density = 0.02, 0.05, 0.1, 0.2\n\
         rounds = log:16:512:3\n\
         estimator = alg1\n\
         movement = pure\n\
         noise = none\n",
        rng.spec_seed()
    )
}

/// A 256×256 torus at 1.6·10⁴ and 6.6·10⁴ agents: the counts engine
/// steps the pure cells and the agent kernel the lazy ones, in four
/// shards of very different cost on two workers.
pub fn large_pop_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    format!(
        "name = large_pop\n\
         seed = {}\n\
         trials = 1\n\
         topology = torus2d:256\n\
         density = 0.25, 1.0\n\
         rounds = 32, 128\n\
         estimator = alg1\n\
         movement = pure, lazy:0.3\n\
         counts = on\n",
        rng.spec_seed()
    )
}

/// The `irregular` shape: Barry-style grids with holes at four hole
/// fractions, a random regular graph, G(n,p), and a clique ring. Every
/// bound is the measured-spectral-gap surrogate. The graphs are those
/// of `specs/irregular.sweep` (mask seed 7): the spectral estimate's
/// cost depends on the graph, so only the trial streams vary with the
/// seed.
pub fn irregular_csr_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    format!(
        "name = irregular_csr\n\
         seed = {}\n\
         trials = 2\n\
         topology = csr:grid-holes:24:7:0, csr:grid-holes:24:7:0.1, csr:grid-holes:24:7:0.3, \
         csr:grid-holes:24:7:0.5, csr:regular:576:8, csr:gnp:576:10, csr:cliquering:36:16\n\
         density = 0.05, 0.15\n\
         rounds = log:16:512:2\n\
         estimator = alg1\n\
         movement = pure\n\
         noise = none\n",
        rng.spec_seed()
    )
}

/// The small Algorithm 1 job every serve client submits, with the job's
/// seed on its own line so [`SweepJob::seed_override`] can replace it.
pub const SERVE_JOB_SPEC: &str = "\
name = serve_job
seed = 1
trials = 1
topology = torus2d:16, ring:256
density = 0.05, 0.2
rounds = 16, 64
estimator = alg1
";

/// Seed of job `k` of the serve job stream, a pure function of the
/// workload seed and `k`, so the stream has no end and is drawn as the
/// clients go. With probability ½ job `k > 0` repeats job `j`, drawn
/// uniformly from `0..k` — a warm hit when that job has already
/// published — and otherwise carries a new seed, a cold miss.
pub fn serve_job_seed(seed: u64, k: u64) -> u64 {
    let seq = SeedSequence::new(seed);
    let mut k = k;
    loop {
        let mut rng = Rng::new(seq.derive(k));
        if k > 0 && rng.below(2) == 0 {
            k = rng.below(k);
        } else {
            return rng.spec_seed();
        }
    }
}

/// The serve job carrying `job_seed`.
pub fn job_with_seed(job_seed: u64) -> SweepJob {
    let mut job = SweepJob::new(SERVE_JOB_SPEC);
    job.seed_override = Some(job_seed);
    job
}

/// Job `i` of client `c` out of `clients`: stream job `i·clients + c`.
pub fn serve_job(seed: u64, clients: usize, c: usize, i: u64) -> SweepJob {
    job_with_seed(serve_job_seed(seed, i * clients as u64 + c as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for gen in [alg1_table_spec, large_pop_spec, irregular_csr_spec] {
            assert_eq!(gen(42), gen(42));
            assert_ne!(gen(42), gen(43));
        }
        let stream = |seed| {
            (0..100)
                .map(|i| serve_job(seed, 2, (i % 2) as usize, i / 2))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(42), stream(42));
        assert_ne!(stream(42), stream(43));
    }

    #[test]
    fn generated_specs_resolve() {
        for seed in 0..8 {
            for text in [
                alg1_table_spec(seed),
                large_pop_spec(seed),
                irregular_csr_spec(seed),
            ] {
                let spec = antdensity_sweep::SweepSpec::parse(&text).expect("parses");
                let resolved = spec.resolve(false).expect("resolves");
                assert!(resolved.skipped.is_empty());
            }
        }
    }

    #[test]
    fn serve_stream_mixes_repeats_and_new_jobs() {
        let seeds: Vec<u64> = (0..400).map(|k| serve_job_seed(7, k)).collect();
        let distinct: std::collections::BTreeSet<u64> = seeds.iter().copied().collect();
        let repeat_share = 1.0 - distinct.len() as f64 / seeds.len() as f64;
        assert!((0.4..0.6).contains(&repeat_share), "{repeat_share}");
        for i in 0..20 {
            serve_job(7, 2, 1, i)
                .validate()
                .expect("serve jobs validate");
        }
    }
}
