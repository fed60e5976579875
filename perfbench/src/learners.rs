//! Times HFL's three learners through their public entry points, on
//! models of the campaign's shape, right after each `feedback` of the
//! traced campaign: the same calls at the same windows, under the same
//! host load.

use std::time::Instant;

use hfl::baselines::TestBody;
use hfl::fuzzer::{HflConfig, HflStats};
use hfl::generator::{EpisodeStep, GenSession, InstructionGenerator};
use hfl::predictor::{CoveragePredictor, ValuePredictor};
use hfl::tokens::Tokens;
use hfl_nn::Adam;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Summed seconds and calls of one learner.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cost {
    pub seconds: f64,
    pub calls: u64,
}

impl Cost {
    fn time(&mut self, call: impl FnOnce()) {
        let start = Instant::now();
        call();
        self.seconds += start.elapsed().as_secs_f64();
        self.calls += 1;
    }

    pub fn us_per_call(&self) -> f64 {
        crate::stats::ratio(1e6 * self.seconds, self.calls as f64)
    }
}

/// A copy of HFL's learners that repeats each update the fuzzer made.
///
/// `HflFuzzer::feedback` makes these calls for one case (batch 1, so every
/// feedback has its case pending):
/// - a completed case trains the coverage predictor on the body's last
///   `max(test_len, 8)` instructions, then appends a step to the open
///   PPO window. If that fired the reset module, nothing else runs and the
///   window empties. Otherwise the window is cut to `test_len` steps and
///   one PPO and one critic step run over it; when the body is full that
///   update closes the episode and the window empties.
/// - a rolled-back case appends a step without cutting the window. After
///   eight in a row the episode closes with one PPO and one critic step.
///
/// Which of these happened is read from the fuzzer's `episodes` and
/// `resets` counters around the call, so only the window length is
/// modelled here.
pub struct Shadow {
    cfg: HflConfig,
    rng: StdRng,
    generator: InstructionGenerator,
    gen_adam: Adam,
    session: GenSession,
    value: ValuePredictor,
    value_adam: Adam,
    coverage: Option<(CoveragePredictor, Adam)>,
    /// Steps sampled from the shadow generator, so actions, masks and
    /// log-probabilities have the shapes the loop records.
    steps: Vec<EpisodeStep>,
    /// Steps in the fuzzer's open PPO window.
    window: usize,
    pub covpred: Cost,
    pub ppo: Cost,
    pub critic: Cost,
}

impl Shadow {
    pub fn new(cfg: HflConfig) -> Shadow {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let generator = InstructionGenerator::new(cfg.generator, &mut rng);
        let value = ValuePredictor::new(cfg.predictor, &mut rng);
        let session = generator.start_session();
        Shadow {
            rng,
            gen_adam: Adam::new(cfg.generator.lr),
            value_adam: Adam::new(cfg.predictor.lr),
            session,
            generator,
            value,
            coverage: None,
            steps: Vec::new(),
            window: 0,
            cfg,
            covpred: Cost::default(),
            ppo: Cost::default(),
            critic: Cost::default(),
        }
    }

    /// Repeats the learner calls of one `feedback`. `bits` are the case's
    /// coverage bits; `before` and `after` the fuzzer's counters around
    /// the call.
    pub fn follow(
        &mut self,
        body: &TestBody,
        terminated: bool,
        bits: Option<&[u8]>,
        before: HflStats,
        after: HflStats,
    ) {
        let closed = after.episodes > before.episodes;
        self.window += 1;
        if !terminated {
            if closed {
                self.update();
                self.window = 0;
            }
            return;
        }
        if let (Some(bits), TestBody::Asm(instructions)) = (bits, body) {
            self.train_coverage(instructions, bits);
        }
        if after.resets > before.resets {
            self.window = 0;
            return;
        }
        self.window = self.window.min(self.cfg.test_len);
        self.update();
        if closed {
            self.window = 0;
        }
    }

    fn train_coverage(&mut self, instructions: &[hfl_riscv::Instruction], bits: &[u8]) {
        let (predictor, adam) = self.coverage.get_or_insert_with(|| {
            (
                CoveragePredictor::new(self.cfg.predictor, bits.len(), &mut self.rng),
                Adam::new(self.cfg.predictor.lr),
            )
        });
        let labels: Vec<f32> = bits.iter().map(|&b| f32::from(b)).collect();
        let start = instructions.len().saturating_sub(self.cfg.test_len.max(8));
        let sequence = Tokens::sequence_with_bos(&instructions[start..]);
        self.covpred.time(|| {
            predictor.train_case(&sequence, &labels, adam);
        });
    }

    /// One PPO and one critic step over the open window.
    fn update(&mut self) {
        while self.steps.len() < self.window {
            let input = self.session.next_input;
            let hidden = self.generator.advance(&mut self.session);
            let (corrected, action) = self.generator.sample_with_exploration(
                &hidden,
                self.cfg.exploration_epsilon,
                &mut self.rng,
            );
            self.generator.commit(&mut self.session, &corrected);
            self.steps.push(EpisodeStep {
                input,
                action,
                mask: corrected.mask.as_array(),
                advantage: 0.5,
            });
        }
        let steps = &self.steps[..self.window];
        let inputs: Vec<Tokens> = steps.iter().map(|s| s.input).collect();
        let targets = vec![0.25f32; self.window];
        let (generator, gen_adam) = (&mut self.generator, &mut self.gen_adam);
        let epsilon = self.cfg.ppo.epsilon;
        self.ppo.time(|| {
            generator.ppo_update(steps, epsilon, gen_adam);
        });
        let (value, value_adam) = (&mut self.value, &mut self.value_adam);
        self.critic.time(|| {
            value.train_episode(&inputs, &targets, value_adam);
        });
    }
}
