//! NN hot-path baseline: measures the same shapes as
//! `benches/nn_hot_path.rs` with plain `Instant` timing (the vendored
//! criterion prints but does not expose numbers) and emits / checks the
//! machine-readable `BENCH_nn.json` baseline. It also prints `train_case`
//! at the paper's hidden size (256), which is neither written nor gated.
//!
//! ```text
//! cargo run --release -p hfl-bench --bin bench_nn -- \
//!     [--out BENCH_nn.json]          # write a fresh baseline
//!     [--check BENCH_nn.json]        # fail if token-step regresses > tolerance
//!     [--tolerance 0.20]             # regression budget for --check
//!     [--require-speedup 2.0]        # minimum batched screening speedup
//!     [--iters-scale 1.0]            # scale iteration counts (CI smoke: < 1)
//! ```

use std::time::Instant;

use hfl::generator::{GeneratorConfig, InstructionGenerator};
use hfl::predictor::{CoveragePredictor, PredictorConfig};
use hfl::Tokens;
use hfl_bench::{arg_num, arg_value};
use hfl_nn::Adam;
use hfl_riscv::{Instruction, Opcode, Reg};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_POINTS: usize = 512;
const K: usize = 8;

/// Median-of-runs nanoseconds per call of `f`.
fn time_ns<F: FnMut()>(mut f: F, iters: u32, runs: u32) -> f64 {
    // Warm-up: populates weight-transpose caches and scratch pools.
    f();
    let mut samples: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters.max(1) {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters.max(1))
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[derive(Debug, Clone, Copy)]
struct Baseline {
    token_step_ns: f64,
    screened_k8_sequential_ns: f64,
    screened_k8_batched_ns: f64,
    screen_speedup: f64,
    train_case_ns: f64,
}

impl Baseline {
    fn to_json(self) -> String {
        format!(
            "{{\n  \"token_step_ns\": {:.1},\n  \"screened_k8_sequential_ns\": {:.1},\n  \
             \"screened_k8_batched_ns\": {:.1},\n  \"screen_speedup\": {:.3},\n  \
             \"train_case_ns\": {:.1}\n}}\n",
            self.token_step_ns,
            self.screened_k8_sequential_ns,
            self.screened_k8_batched_ns,
            self.screen_speedup,
            self.train_case_ns,
        )
    }
}

/// Pulls `"key": <number>` out of the flat baseline JSON (no nesting, no
/// string values — a full parser would be overkill for our own format).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn measure(scale: f64) -> Baseline {
    let it = |n: u32| ((f64::from(n) * scale).ceil() as u32).max(1);
    let mut rng = StdRng::seed_from_u64(1);
    let generator = InstructionGenerator::new(GeneratorConfig::small(), &mut rng);
    // Token-step: 24 generated instructions per call, reported per token.
    let token_step_ns = time_ns(
        || {
            let mut session = generator.start_session();
            for _ in 0..24 {
                std::hint::black_box(generator.next_instruction(&mut session, &mut rng));
            }
        },
        it(40),
        5,
    ) / 24.0;

    let mut cp = CoveragePredictor::new(PredictorConfig::small(), N_POINTS, &mut rng);
    let mut session = cp.start_session();
    cp.step(&mut session, &Tokens::bos());
    let tokens: Vec<Tokens> = (0..K)
        .map(|i| {
            Tokens::from_instruction(&Instruction::i(Opcode::Addi, Reg::X1, Reg::X2, i as i64))
        })
        .collect();
    let cumulative = vec![0.25f32; N_POINTS];
    let score = |probs: &[f32], cumulative: &[f32]| -> f32 {
        probs
            .iter()
            .zip(cumulative)
            .map(|(p, cum)| p * (1.0 - cum))
            .sum()
    };
    let screened_k8_sequential_ns = time_ns(
        || {
            let mut best = f32::MIN;
            for t in &tokens {
                let probs = cp.peek(&session, t);
                best = best.max(score(&probs, &cumulative));
            }
            std::hint::black_box(best);
        },
        it(60),
        5,
    );
    let screened_k8_batched_ns = time_ns(
        || {
            let mut best = f32::MIN;
            for probs in cp.peek_batch(&session, &tokens) {
                best = best.max(score(&probs, &cumulative));
            }
            std::hint::black_box(best);
        },
        it(60),
        5,
    );

    let train_case_ns = time_train_case(PredictorConfig::small(), it(20), &mut rng);

    Baseline {
        token_step_ns,
        screened_k8_sequential_ns,
        screened_k8_batched_ns,
        screen_speedup: screened_k8_sequential_ns / screened_k8_batched_ns,
        train_case_ns,
    }
}

/// Median nanoseconds of one `CoveragePredictor::train_case` on a
/// 24-token sequence against `N_POINTS` labels.
fn time_train_case(cfg: PredictorConfig, iters: u32, rng: &mut StdRng) -> f64 {
    let mut train_cp = CoveragePredictor::new(cfg, N_POINTS, rng);
    let mut adam = Adam::new(1e-4);
    let sequence: Vec<Tokens> = (0..24)
        .map(|i| {
            Tokens::from_instruction(&Instruction::i(Opcode::Addi, Reg::X1, Reg::X1, i as i64))
        })
        .collect();
    let labels: Vec<f32> = (0..N_POINTS)
        .map(|i| f32::from(u8::from(i % 3 == 0)))
        .collect();
    time_ns(
        || {
            std::hint::black_box(train_cp.train_case(&sequence, &labels, &mut adam));
        },
        iters,
        5,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = arg_num(&args, "--iters-scale", 1.0);
    let tolerance: f64 = arg_num(&args, "--tolerance", 0.20);
    let require_speedup: f64 = arg_num(&args, "--require-speedup", 0.0);

    let b = measure(scale);
    println!("nn hot path (hidden 64, {N_POINTS} coverage points, k = {K}):");
    println!("  token step            {:>12.0} ns", b.token_step_ns);
    println!(
        "  screened k=8          {:>12.0} ns sequential / {:.0} ns batched ({:.2}x)",
        b.screened_k8_sequential_ns, b.screened_k8_batched_ns, b.screen_speedup
    );
    println!("  train_case (seq 24)   {:>12.0} ns", b.train_case_ns);
    // The paper's size (§V-A), printed for the ledger and never gated.
    let paper = PredictorConfig::paper_default();
    let iters = ((5.0 * scale).ceil() as u32).max(1);
    let train_case_256_ns = time_train_case(paper, iters, &mut StdRng::seed_from_u64(2));
    println!(
        "  train_case hidden {}  {:>12.0} ns (seq 24, ungated)",
        paper.hidden, train_case_256_ns
    );

    let mut failed = false;
    if require_speedup > 0.0 && b.screen_speedup < require_speedup {
        eprintln!(
            "FAIL: batched screening speedup {:.2}x below the required {require_speedup:.2}x",
            b.screen_speedup
        );
        failed = true;
    }
    if let Some(path) = arg_value(&args, "--check") {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let base = json_number(&text, "token_step_ns")
            .unwrap_or_else(|| panic!("baseline {path} lacks token_step_ns"));
        let budget = base * (1.0 + tolerance);
        if b.token_step_ns > budget {
            eprintln!(
                "FAIL: token step {:.0} ns regressed past {budget:.0} ns \
                 (baseline {base:.0} ns + {:.0}% tolerance)",
                b.token_step_ns,
                tolerance * 100.0
            );
            failed = true;
        } else {
            println!(
                "check ok: token step {:.0} ns within {budget:.0} ns budget \
                 (baseline {base:.0} ns)",
                b.token_step_ns
            );
        }
    }
    if let Some(path) = arg_value(&args, "--out") {
        std::fs::write(&path, b.to_json()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
    if failed {
        std::process::exit(1);
    }
}
