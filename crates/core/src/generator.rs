//! The multi-head LSTM instruction generator (§IV-A, §V-A).
//!
//! A two-layer LSTM (hidden size 256 in the paper) extracts sequence
//! features; seven heads — opcode, four register slots, immediate, address
//! — each a 32-feature hidden layer plus an output projection, emit the
//! next instruction's components. Sampling is categorical with an optional
//! temperature; PPO fine-tuning (Eq. 4) flows gradients through the active
//! heads only, gated by the instruction mask (§IV-B).

use hfl_nn::ops::{log_prob, sample_categorical, softmax_with_temperature};
use hfl_nn::{Adam, Linear, Lstm, LstmState, Scratch, Tensor};
use hfl_rl::ppo_logit_grad;
use rand::Rng;

use crate::correction::{correct, Corrected, HeadOutputs};
use crate::encoder::{EncoderConfig, TokenEncoder};
use crate::tokens::{head_sizes, Tokens};

/// Generator hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// LSTM hidden size (paper: 256).
    pub hidden: usize,
    /// LSTM depth (paper: 2).
    pub layers: usize,
    /// Per-head hidden features (paper: 32).
    pub head_hidden: usize,
    /// Embedding widths.
    pub encoder: EncoderConfig,
    /// Sampling temperature (1.0 = the raw policy).
    pub temperature: f32,
    /// Learning rate (paper: 1e-4).
    pub lr: f32,
}

impl GeneratorConfig {
    /// The paper's §V-A configuration.
    #[must_use]
    pub fn paper_default() -> GeneratorConfig {
        GeneratorConfig {
            hidden: 256,
            layers: 2,
            head_hidden: 32,
            encoder: EncoderConfig::default_dims(),
            temperature: 1.0,
            lr: 1e-4,
        }
    }

    /// A smaller configuration for fast experiments and tests (same
    /// architecture, narrower layers).
    #[must_use]
    pub fn small() -> GeneratorConfig {
        GeneratorConfig {
            hidden: 64,
            layers: 2,
            lr: 3e-4,
            ..GeneratorConfig::paper_default()
        }
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig::paper_default()
    }
}

/// A head's cached `(logits, hidden activation)` forward result.
type HeadEval = (Vec<f32>, Vec<f32>);

/// One output head: `tanh(W1 h + b1)` into a projection over the head's
/// vocabulary.
#[derive(Debug, Clone)]
struct Head {
    l1: Linear,
    l2: Linear,
}

impl Head {
    fn new<R: Rng>(hidden: usize, head_hidden: usize, out: usize, rng: &mut R) -> Head {
        Head {
            l1: Linear::new(head_hidden, hidden, rng),
            l2: Linear::new(out, head_hidden, rng),
        }
    }

    /// Forward pass; returns `(logits, hidden activation)`.
    fn forward(&self, h: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut a = self.l1.forward(h);
        for v in &mut a {
            *v = v.tanh();
        }
        let logits = self.l2.forward(&a);
        (logits, a)
    }

    /// Batched forward over many hidden vectors through one fused GEMM per
    /// layer; bit-identical to [`Head::forward`] per input.
    fn forward_batch(&self, hs: &[&[f32]], scratch: &mut Scratch) -> Vec<HeadEval> {
        let mut acts = self.l1.forward_batch(hs, scratch);
        for a in &mut acts {
            for v in a.iter_mut() {
                *v = v.tanh();
            }
        }
        let arefs: Vec<&[f32]> = acts.iter().map(Vec::as_slice).collect();
        let logits = self.l2.forward_batch(&arefs, scratch);
        logits.into_iter().zip(acts).collect()
    }

    /// Backward pass; returns the gradient w.r.t. the LSTM hidden vector.
    fn backward(&mut self, h: &[f32], act: &[f32], dlogits: &[f32]) -> Vec<f32> {
        let mut da = self.l2.backward(act, dlogits);
        for (d, a) in da.iter_mut().zip(act) {
            *d *= 1.0 - a * a;
        }
        self.l1.backward(h, &da)
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut v = self.l1.params_mut();
        v.extend(self.l2.params_mut());
        v
    }
}

/// A sampled action: the raw head outputs plus their log-probabilities
/// under the sampling policy (needed as `π_old` in the PPO ratio).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledAction {
    /// Raw head indices.
    pub outputs: HeadOutputs,
    /// Per-head log-probabilities at sampling time.
    pub log_probs: [f32; 7],
}

/// One step of an episode, as recorded by the fuzzing loop for the PPO
/// update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeStep {
    /// The token fed to the LSTM at this step (previous instruction/BOS).
    pub input: Tokens,
    /// The sampled action.
    pub action: SampledAction,
    /// The instruction mask: which heads receive gradient.
    pub mask: [bool; 7],
    /// The advantage estimate Â_t (Eq. 2), already normalised.
    pub advantage: f32,
}

/// Statistics from one PPO update.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UpdateStats {
    /// Mean probability ratio across updated heads.
    pub mean_ratio: f32,
    /// Fraction of head updates zeroed by clipping.
    pub clipped_fraction: f32,
    /// Mean `r − 1 − ln r` across updated heads — the KL(π_old ‖ π)
    /// estimate reported by `Event::PpoUpdate`.
    pub approx_kl: f32,
}

/// The multi-head LSTM instruction generator.
///
/// # Examples
///
/// ```
/// use hfl::generator::{GeneratorConfig, InstructionGenerator};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let generator = InstructionGenerator::new(GeneratorConfig::small(), &mut rng);
/// let mut session = generator.start_session();
/// let (corrected, _action) = generator.next_instruction(&mut session, &mut rng);
/// let _word = corrected.instruction.encode();
/// ```
#[derive(Debug, Clone)]
pub struct InstructionGenerator {
    cfg: GeneratorConfig,
    encoder: TokenEncoder,
    lstm: Lstm,
    heads: Vec<Head>,
    /// Reusable forward-pass buffers; transient, never checkpointed.
    scratch: Scratch,
}

/// Streaming generation state: the LSTM state plus the last token fed.
#[derive(Debug, Clone)]
pub struct GenSession {
    state: LstmState,
    /// The next input token (starts at BOS, then each corrected
    /// instruction).
    pub next_input: Tokens,
}

impl GenSession {
    /// The LSTM state (checkpointing).
    #[must_use]
    pub fn state(&self) -> &LstmState {
        &self.state
    }

    /// Rebuilds a session from checkpointed parts.
    #[must_use]
    pub fn from_parts(state: LstmState, next_input: Tokens) -> GenSession {
        GenSession { state, next_input }
    }
}

impl InstructionGenerator {
    /// Creates a generator with freshly initialised parameters.
    #[must_use]
    pub fn new<R: Rng>(cfg: GeneratorConfig, rng: &mut R) -> InstructionGenerator {
        let encoder = TokenEncoder::new(cfg.encoder, rng);
        let lstm = Lstm::new(encoder.dim(), cfg.hidden, cfg.layers, rng);
        let sizes = head_sizes();
        let heads = sizes
            .iter()
            .map(|&out| Head::new(cfg.hidden, cfg.head_hidden, out, rng))
            .collect();
        InstructionGenerator {
            cfg,
            encoder,
            lstm,
            heads,
            scratch: Scratch::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &GeneratorConfig {
        &self.cfg
    }

    /// Re-initialises every parameter — the §IV-B reset module's generator
    /// half.
    pub fn reset<R: Rng>(&mut self, rng: &mut R) {
        *self = InstructionGenerator::new(self.cfg, rng);
    }

    /// Starts a fresh generation session (state at BOS).
    #[must_use]
    pub fn start_session(&self) -> GenSession {
        GenSession {
            state: self.lstm.zero_state(),
            next_input: Tokens::bos(),
        }
    }

    /// Advances the session's LSTM by the pending input token, returning
    /// the hidden feature vector the heads read from. Candidates sampled
    /// from the same hidden vector share this single advance.
    pub fn advance(&self, session: &mut GenSession) -> Vec<f32> {
        let x = self.encoder.encode(&session.next_input);
        self.lstm.step(&x, &mut session.state)
    }

    /// Samples one action from the head distributions over a hidden
    /// vector (no session state is touched).
    pub fn sample_from_hidden<R: Rng>(
        &self,
        hidden: &[f32],
        rng: &mut R,
    ) -> (Corrected, SampledAction) {
        self.sample_with_exploration(hidden, 0.0, rng)
    }

    /// Samples an action with a per-head ε-exploration floor: with
    /// probability `epsilon` a head's output is drawn uniformly instead of
    /// from the policy. This is the loop's guard against the §IV-B "curse
    /// of exploitation" — rare opcodes/operands never vanish from the
    /// stream. Log-probabilities are recorded under the policy (the PPO
    /// ratio clipping tolerates the slight off-policy-ness).
    pub fn sample_with_exploration<R: Rng>(
        &self,
        hidden: &[f32],
        epsilon: f32,
        rng: &mut R,
    ) -> (Corrected, SampledAction) {
        let sizes = head_sizes();
        let mut indices = [0usize; 7];
        let mut log_probs = [0f32; 7];
        for (k, head) in self.heads.iter().enumerate() {
            let (logits, _) = head.forward(hidden);
            let scaled: Vec<f32> = logits.iter().map(|&l| l / self.cfg.temperature).collect();
            // The opcode head has by far the largest vocabulary and is the
            // head the exploitation curse empties first (§IV-B's example:
            // `sub` crowds out `fcvt.d.lu`), so its floor is stronger.
            let head_eps = if k == 0 {
                (3.0 * epsilon).min(0.25)
            } else {
                epsilon
            };
            let idx = if head_eps > 0.0 && rng.gen::<f32>() < head_eps {
                rng.gen_range(0..sizes[k])
            } else {
                let probs = softmax_with_temperature(&logits, self.cfg.temperature);
                sample_categorical(&probs, rng)
            };
            indices[k] = idx;
            log_probs[k] = log_prob(&scaled, idx);
        }
        let outputs = HeadOutputs { indices };
        let corrected = correct(&outputs);
        (corrected, SampledAction { outputs, log_probs })
    }

    /// Samples like [`sample_with_exploration`](Self::sample_with_exploration)
    /// but with an additive logit bias on the opcode head — the scenario
    /// head of the hierarchical policy: the high-level controller picks a
    /// scenario, whose bias table tilts the opcode distribution toward
    /// that scenario's instruction classes, while the LSTM policy below is
    /// untouched. `None` delegates to the unbiased path and is
    /// bit-identical to it (same RNG consumption). Log-probabilities are
    /// recorded under the *biased* policy, so a PPO update sees the
    /// distribution the action was actually drawn from.
    pub fn sample_with_scenario_bias<R: Rng>(
        &self,
        hidden: &[f32],
        epsilon: f32,
        opcode_bias: Option<&[f32]>,
        rng: &mut R,
    ) -> (Corrected, SampledAction) {
        let Some(bias) = opcode_bias else {
            return self.sample_with_exploration(hidden, epsilon, rng);
        };
        let sizes = head_sizes();
        let mut indices = [0usize; 7];
        let mut log_probs = [0f32; 7];
        for (k, head) in self.heads.iter().enumerate() {
            let (mut logits, _) = head.forward(hidden);
            if k == 0 {
                for (l, b) in logits.iter_mut().zip(bias) {
                    *l += b;
                }
            }
            let scaled: Vec<f32> = logits.iter().map(|&l| l / self.cfg.temperature).collect();
            let head_eps = if k == 0 {
                (3.0 * epsilon).min(0.25)
            } else {
                epsilon
            };
            let idx = if head_eps > 0.0 && rng.gen::<f32>() < head_eps {
                rng.gen_range(0..sizes[k])
            } else {
                let probs = softmax_with_temperature(&logits, self.cfg.temperature);
                sample_categorical(&probs, rng)
            };
            indices[k] = idx;
            log_probs[k] = log_prob(&scaled, idx);
        }
        let outputs = HeadOutputs { indices };
        let corrected = correct(&outputs);
        (corrected, SampledAction { outputs, log_probs })
    }

    /// Commits a chosen instruction: its tokens become the next LSTM
    /// input, so the generator always conditions on what actually entered
    /// the test case.
    pub fn commit(&self, session: &mut GenSession, corrected: &Corrected) {
        session.next_input = Tokens::from_instruction(&corrected.instruction);
    }

    /// Samples, corrects and commits the next instruction of a session
    /// ([`advance`](Self::advance) + [`sample_from_hidden`](Self::sample_from_hidden)
    /// + [`commit`](Self::commit)).
    pub fn next_instruction<R: Rng>(
        &self,
        session: &mut GenSession,
        rng: &mut R,
    ) -> (Corrected, SampledAction) {
        let h = self.advance(session);
        let (corrected, action) = self.sample_from_hidden(&h, rng);
        self.commit(session, &corrected);
        (corrected, action)
    }

    /// PPO update over one episode (Eq. 4): full BPTT through the LSTM,
    /// per-head gradients gated by the instruction mask, one Adam step.
    pub fn ppo_update(
        &mut self,
        steps: &[EpisodeStep],
        epsilon: f32,
        adam: &mut Adam,
    ) -> UpdateStats {
        if steps.is_empty() {
            return UpdateStats::default();
        }
        let tokens: Vec<Tokens> = steps.iter().map(|s| s.input).collect();
        let inputs = self.encoder.encode_batch(&tokens);
        let trace = self.lstm.forward_seq(&inputs);
        // Batched re-evaluation: each head's forward over its masked
        // timesteps runs as one fused GEMM pass up front; the update loop
        // below then consumes the cached activations in the exact
        // (timestep-outer, head-inner) order the sequential path computed
        // them, so stat accumulation and gradients stay bit-identical.
        let mut head_evals: Vec<Vec<Option<HeadEval>>> =
            self.heads.iter().map(|_| vec![None; steps.len()]).collect();
        for (k, head) in self.heads.iter().enumerate() {
            let ts: Vec<usize> = steps
                .iter()
                .enumerate()
                .filter(|(_, s)| s.mask[k])
                .map(|(t, _)| t)
                .collect();
            if ts.is_empty() {
                continue;
            }
            let hs: Vec<&[f32]> = ts.iter().map(|&t| trace.outputs[t].as_slice()).collect();
            let evals = head.forward_batch(&hs, &mut self.scratch);
            for (t, eval) in ts.into_iter().zip(evals) {
                head_evals[k][t] = Some(eval);
            }
        }
        let mut d_out: Vec<Vec<f32>> = trace.outputs.iter().map(|h| vec![0.0; h.len()]).collect();
        let mut ratio_sum = 0.0f32;
        let mut kl_sum = 0.0f32;
        let mut clipped = 0usize;
        let mut updated = 0usize;
        for (t, step) in steps.iter().enumerate() {
            let h = &trace.outputs[t];
            for (k, head) in self.heads.iter_mut().enumerate() {
                if !step.mask[k] {
                    continue;
                }
                let (logits, act) = head_evals[k][t].take().expect("mask matched above");
                let scaled: Vec<f32> = logits.iter().map(|&l| l / self.cfg.temperature).collect();
                let (ratio, mut dscaled) = ppo_logit_grad(
                    &scaled,
                    step.action.outputs.indices[k],
                    step.action.log_probs[k],
                    step.advantage,
                    epsilon,
                );
                ratio_sum += ratio;
                kl_sum += hfl_rl::approx_kl(ratio);
                updated += 1;
                if dscaled.iter().all(|&d| d == 0.0) {
                    clipped += 1;
                    continue;
                }
                for d in &mut dscaled {
                    *d /= self.cfg.temperature;
                }
                let dh = head.backward(h, &act, &dscaled);
                for (a, b) in d_out[t].iter_mut().zip(&dh) {
                    *a += b;
                }
            }
        }
        let dxs = self.lstm.backward_seq(&trace, &d_out);
        for (step, dx) in steps.iter().zip(&dxs) {
            self.encoder.backward(&step.input, dx);
        }
        adam.step(&mut self.params_mut());
        UpdateStats {
            mean_ratio: if updated > 0 {
                ratio_sum / updated as f32
            } else {
                0.0
            },
            clipped_fraction: if updated > 0 {
                clipped as f32 / updated as f32
            } else {
                0.0
            },
            approx_kl: if updated > 0 {
                kl_sum / updated as f32
            } else {
                0.0
            },
        }
    }

    /// All trainable tensors.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut v = self.encoder.params_mut();
        v.extend(self.lstm.params_mut());
        for head in &mut self.heads {
            v.extend(head.params_mut());
        }
        v
    }

    /// The token encoder (checkpointing).
    #[must_use]
    pub fn encoder_ref(&self) -> &TokenEncoder {
        &self.encoder
    }

    /// The LSTM core (checkpointing).
    #[must_use]
    pub fn lstm_ref(&self) -> &Lstm {
        &self.lstm
    }

    /// The heads' layer pairs `(hidden, output)` in head order
    /// (checkpointing).
    #[must_use]
    pub fn heads_ref(&self) -> Vec<(&Linear, &Linear)> {
        self.heads.iter().map(|h| (&h.l1, &h.l2)).collect()
    }

    /// Rebuilds a generator from persisted parts; `None` on shape
    /// mismatch.
    #[must_use]
    pub fn from_parts(
        cfg: GeneratorConfig,
        encoder: TokenEncoder,
        lstm: Lstm,
        heads: Vec<(Linear, Linear)>,
    ) -> Option<InstructionGenerator> {
        let sizes = head_sizes();
        if heads.len() != sizes.len()
            || encoder.dim() != cfg.encoder.input_dim()
            || lstm.hidden() != cfg.hidden
            || lstm.layers() != cfg.layers
        {
            return None;
        }
        for ((l1, l2), &out) in heads.iter().zip(&sizes) {
            if l1.in_dim() != cfg.hidden
                || l1.out_dim() != cfg.head_hidden
                || l2.in_dim() != cfg.head_hidden
                || l2.out_dim() != out
            {
                return None;
            }
        }
        let heads = heads.into_iter().map(|(l1, l2)| Head { l1, l2 }).collect();
        Some(InstructionGenerator {
            cfg,
            encoder,
            lstm,
            heads,
            scratch: Scratch::default(),
        })
    }

    /// Restores optimiser buffers after deserialisation.
    pub fn ensure_buffers(&mut self) {
        self.encoder.ensure_buffers();
        self.lstm.ensure_buffers();
        for head in &mut self.heads {
            head.l1.ensure_buffers();
            head.l2.ensure_buffers();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_gen(seed: u64) -> (InstructionGenerator, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GeneratorConfig {
            hidden: 16,
            layers: 2,
            ..GeneratorConfig::small()
        };
        let g = InstructionGenerator::new(cfg, &mut rng);
        (g, rng)
    }

    #[test]
    fn paper_default_dimensions() {
        let cfg = GeneratorConfig::paper_default();
        assert_eq!(cfg.hidden, 256);
        assert_eq!(cfg.layers, 2);
        assert_eq!(cfg.head_hidden, 32);
        assert!((cfg.lr - 1e-4).abs() < 1e-9);
    }

    #[test]
    fn generates_valid_instructions() {
        let (g, mut rng) = small_gen(0);
        let mut session = g.start_session();
        for _ in 0..50 {
            let (c, a) = g.next_instruction(&mut session, &mut rng);
            let _ = c.instruction.encode();
            assert!(a.log_probs.iter().all(|lp| lp.is_finite() && *lp <= 0.0));
            assert!(c.mask.opcode);
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let (g1, mut rng1) = small_gen(7);
        let (g2, mut rng2) = small_gen(7);
        let mut s1 = g1.start_session();
        let mut s2 = g2.start_session();
        for _ in 0..20 {
            let (c1, _) = g1.next_instruction(&mut s1, &mut rng1);
            let (c2, _) = g2.next_instruction(&mut s2, &mut rng2);
            assert_eq!(c1.instruction, c2.instruction);
        }
    }

    #[test]
    fn generation_produces_diverse_opcodes() {
        let (g, mut rng) = small_gen(3);
        let mut session = g.start_session();
        let mut opcodes = std::collections::HashSet::new();
        for _ in 0..200 {
            let (c, _) = g.next_instruction(&mut session, &mut rng);
            opcodes.insert(c.instruction.opcode);
        }
        assert!(
            opcodes.len() > 30,
            "only {} distinct opcodes",
            opcodes.len()
        );
    }

    #[test]
    fn unbiased_scenario_sampling_matches_exploration_exactly() {
        let (g, _) = small_gen(31);
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let mut s = g.start_session();
        let h = g.advance(&mut s);
        for _ in 0..10 {
            let (ca, aa) = g.sample_with_exploration(&h, 0.1, &mut rng_a);
            let (cb, ab) = g.sample_with_scenario_bias(&h, 0.1, None, &mut rng_b);
            assert_eq!(ca.instruction, cb.instruction);
            assert_eq!(aa, ab);
        }
    }

    #[test]
    fn opcode_bias_tilts_the_sampled_distribution() {
        let (g, mut rng) = small_gen(37);
        let sizes = head_sizes();
        let target = 3usize;
        let mut bias = vec![0.0f32; sizes[0]];
        bias[target] = 12.0; // dominate the logits
        let mut s = g.start_session();
        let h = g.advance(&mut s);
        let mut hits = 0;
        for _ in 0..50 {
            let (_, action) = g.sample_with_scenario_bias(&h, 0.0, Some(&bias), &mut rng);
            if action.outputs.indices[0] == target {
                hits += 1;
            }
            // The log-prob is recorded under the biased policy, so the
            // dominant index must carry near-zero log-probability.
            if action.outputs.indices[0] == target {
                assert!(action.log_probs[0] > -0.1, "{}", action.log_probs[0]);
            }
        }
        assert!(hits > 45, "bias should dominate: {hits}/50");
    }

    #[test]
    fn ppo_update_reinforces_rewarded_actions() {
        let (mut g, mut rng) = small_gen(11);
        let mut adam = Adam::new(0.05);
        // Record one sampled step, then repeatedly reward it; the action's
        // probability must rise.
        let mut session = g.start_session();
        let (_, action) = g.next_instruction(&mut session, &mut rng);
        let step = EpisodeStep {
            input: Tokens::bos(),
            action,
            mask: [true; 7],
            advantage: 1.0,
        };
        let prob_of_action = |g: &InstructionGenerator| -> f32 {
            let x = g.encoder.encode(&Tokens::bos());
            let mut st = g.lstm.zero_state();
            let h = g.lstm.step(&x, &mut st);
            let (logits, _) = g.heads[0].forward(&h);
            hfl_nn::ops::softmax(&logits)[action.outputs.indices[0]]
        };
        let before = prob_of_action(&g);
        for _ in 0..5 {
            let stats = g.ppo_update(&[step], 0.2, &mut adam);
            assert!(stats.mean_ratio > 0.0);
        }
        let after = prob_of_action(&g);
        assert!(after > before, "π(a) should grow: {before} -> {after}");
    }

    #[test]
    fn ppo_clipping_limits_drift() {
        let (mut g, mut rng) = small_gen(13);
        let mut adam = Adam::new(0.5); // aggressive on purpose
        let mut session = g.start_session();
        let (_, action) = g.next_instruction(&mut session, &mut rng);
        let step = EpisodeStep {
            input: Tokens::bos(),
            action,
            mask: [true; 7],
            advantage: 1.0,
        };
        let mut saw_clip = false;
        for _ in 0..30 {
            let stats = g.ppo_update(&[step], 0.2, &mut adam);
            if stats.clipped_fraction > 0.0 {
                saw_clip = true;
                break;
            }
        }
        assert!(saw_clip, "aggressive updates must eventually clip");
    }

    #[test]
    fn mask_prevents_updates_to_inactive_heads() {
        let (mut g, mut rng) = small_gen(17);
        let mut adam = Adam::new(0.1);
        let mut session = g.start_session();
        let (_, action) = g.next_instruction(&mut session, &mut rng);
        // Only the opcode head is active.
        let mut mask = [false; 7];
        mask[0] = true;
        let step = EpisodeStep {
            input: Tokens::bos(),
            action,
            mask,
            advantage: 1.0,
        };
        let addr_head_before = g.heads[6].l2.w.data().to_vec();
        g.ppo_update(&[step], 0.2, &mut adam);
        assert_eq!(
            g.heads[6].l2.w.data(),
            addr_head_before,
            "masked head must not move"
        );
    }

    #[test]
    fn reset_reinitialises_parameters() {
        let (mut g, mut rng) = small_gen(23);
        let before = g.heads[0].l2.w.data().to_vec();
        g.reset(&mut rng);
        assert_ne!(g.heads[0].l2.w.data(), before);
    }

    #[test]
    fn empty_update_is_a_noop() {
        let (mut g, _) = small_gen(29);
        let mut adam = Adam::new(0.1);
        let stats = g.ppo_update(&[], 0.2, &mut adam);
        assert_eq!(stats, UpdateStats::default());
    }
}
