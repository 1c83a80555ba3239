//! Rollout storage and generalized advantage estimation.
//!
//! A scheduling round produces one transition per submitted query: the
//! observation at the decision point, the chosen action (query × parameter
//! configuration), its log-probability and value estimate under the behaviour
//! policy, the reward (negative elapsed virtual time until the next decision,
//! so that the episode return is the negative makespan), and — for IQ-PPO's
//! auxiliary task — the identity and ground-truth finish time of the earliest
//! concurrent query to finish.

/// Auxiliary-task target attached to a transition: the earliest concurrent
/// query to finish after this decision point and its (normalised) remaining
/// time until completion.
#[derive(Debug, Clone, Copy)]
pub struct AuxTarget {
    /// Index (within the observation's entity list) of the earliest query to
    /// finish among those running at this state.
    pub earliest_index: usize,
    /// Its ground-truth finish time, expressed in the same normalised units
    /// the auxiliary head predicts.
    pub finish_time: f32,
}

/// One stored decision.
#[derive(Debug, Clone)]
pub struct Transition<O> {
    /// Observation at the decision point.
    pub obs: O,
    /// Index of the chosen action in the flattened action space.
    pub action: usize,
    /// Log-probability of the action under the behaviour policy.
    pub log_prob: f32,
    /// Value estimate of the behaviour policy.
    pub value: f32,
    /// Reward obtained after the action.
    pub reward: f32,
    /// Whether the episode ended after this transition.
    pub done: bool,
    /// Full action distribution of the behaviour policy (for the KL /
    /// behaviour-cloning term of the auxiliary phases).
    pub action_probs: Vec<f32>,
    /// Auxiliary finish-time target, when one exists for this state.
    pub aux: Option<AuxTarget>,
}

/// Per-transition advantage and return computed by GAE.
#[derive(Debug, Clone, Copy)]
pub struct Estimate {
    /// Advantage estimate Â_t.
    pub advantage: f32,
    /// Value target V̂^targ_t (advantage + value).
    pub value_target: f32,
}

/// A buffer of transitions collected under one behaviour policy.
#[derive(Debug, Clone)]
pub struct RolloutBuffer<O> {
    transitions: Vec<Transition<O>>,
}

impl<O> Default for RolloutBuffer<O> {
    fn default() -> Self {
        Self {
            transitions: Vec::new(),
        }
    }
}

impl<O> RolloutBuffer<O> {
    /// Create an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a transition.
    pub fn push(&mut self, transition: Transition<O>) {
        self.transitions.push(transition);
    }

    /// All stored transitions, in collection order.
    pub fn transitions(&self) -> &[Transition<O>] {
        &self.transitions
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Remove everything (called after each on-policy update).
    pub fn clear(&mut self) {
        self.transitions.clear();
    }

    /// Append all transitions of `other` (used by IQ-PPO, whose auxiliary
    /// phase trains on every log accumulated during the PPO phase).
    pub fn extend(&mut self, other: RolloutBuffer<O>) {
        self.transitions.extend(other.transitions);
    }

    /// Generalized advantage estimation over the stored (possibly multi-
    /// episode) trajectory. Episode boundaries are taken from `done` flags;
    /// the value after a terminal state is zero.
    pub fn gae(&self, gamma: f32, lambda: f32) -> Vec<Estimate> {
        let n = self.transitions.len();
        let mut estimates = vec![
            Estimate {
                advantage: 0.0,
                value_target: 0.0
            };
            n
        ];
        let mut next_advantage = 0.0f32;
        let mut next_value = 0.0f32;
        for i in (0..n).rev() {
            let t = &self.transitions[i];
            if t.done {
                next_advantage = 0.0;
                next_value = 0.0;
            }
            let delta = t.reward + gamma * next_value - t.value;
            let advantage = delta + gamma * lambda * next_advantage;
            estimates[i] = Estimate {
                advantage,
                value_target: advantage + t.value,
            };
            next_advantage = advantage;
            next_value = t.value;
        }
        estimates
    }

    /// GAE advantages normalised to zero mean and unit variance (the usual
    /// PPO stabilisation), paired with unnormalised value targets.
    pub fn normalized_gae(&self, gamma: f32, lambda: f32) -> Vec<Estimate> {
        let mut est = self.gae(gamma, lambda);
        if est.len() < 2 {
            return est;
        }
        let mean = est.iter().map(|e| e.advantage).sum::<f32>() / est.len() as f32;
        let var = est
            .iter()
            .map(|e| (e.advantage - mean).powi(2))
            .sum::<f32>()
            / est.len() as f32;
        let std = var.sqrt().max(1e-6);
        for e in &mut est {
            e.advantage = (e.advantage - mean) / std;
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transition(reward: f32, value: f32, done: bool) -> Transition<u32> {
        Transition {
            obs: 0,
            action: 0,
            log_prob: -1.0,
            value,
            reward,
            done,
            action_probs: vec![0.5, 0.5],
            aux: None,
        }
    }

    #[test]
    fn gae_matches_hand_computed_values() {
        // Two-step episode, gamma=1, lambda=1: advantages are the full-return
        // residuals.
        let mut buf = RolloutBuffer::new();
        buf.push(transition(-1.0, 0.5, false));
        buf.push(transition(-2.0, 0.25, true));
        let est = buf.gae(1.0, 1.0);
        // delta_1 = -2 - 0.25 = -2.25 ; A_1 = -2.25 ; target_1 = -2.0
        assert!((est[1].advantage + 2.25).abs() < 1e-6);
        assert!((est[1].value_target + 2.0).abs() < 1e-6);
        // delta_0 = -1 + 0.25 - 0.5 = -1.25 ; A_0 = -1.25 + (-2.25) = -3.5
        assert!((est[0].advantage + 3.5).abs() < 1e-6);
        assert!((est[0].value_target + 3.0).abs() < 1e-6);
    }

    #[test]
    fn gae_respects_episode_boundaries() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(-1.0, 0.0, true));
        buf.push(transition(-5.0, 0.0, true));
        let est = buf.gae(0.99, 0.95);
        // Episodes are independent: the first advantage must not see the second reward.
        assert!((est[0].advantage + 1.0).abs() < 1e-6);
        assert!((est[1].advantage + 5.0).abs() < 1e-6);
    }

    #[test]
    fn normalized_advantages_have_zero_mean_unit_std() {
        let mut buf = RolloutBuffer::new();
        for i in 0..10 {
            buf.push(transition(-(i as f32), 0.0, i == 9));
        }
        let est = buf.normalized_gae(0.99, 0.95);
        let mean: f32 = est.iter().map(|e| e.advantage).sum::<f32>() / est.len() as f32;
        let var: f32 =
            est.iter().map(|e| e.advantage * e.advantage).sum::<f32>() / est.len() as f32;
        assert!(mean.abs() < 1e-4);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn extend_and_clear() {
        let mut a = RolloutBuffer::new();
        a.push(transition(-1.0, 0.0, true));
        let mut b = RolloutBuffer::new();
        b.push(transition(-2.0, 0.0, true));
        b.push(transition(-3.0, 0.0, true));
        a.extend(b);
        assert_eq!(a.len(), 3);
        a.clear();
        assert!(a.is_empty());
    }
}
