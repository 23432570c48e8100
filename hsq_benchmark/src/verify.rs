//! Exact-reference verification, run after the timed region.
//!
//! No input is retained while the program runs (so `peak_rss_mb` measures
//! the program, not the benchmark): the seeded generator is replayed here,
//! step by step, and every recorded answer's true rank interval is counted
//! from the replayed items. Weighted items count their weight.

/// One answer the program gave, and what it was asked.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// The value the program returned.
    pub value: u64,
    /// The 1-based rank that was asked for.
    pub target: u64,
    /// `ε·W`: the allowed rank error, `W` the live stream weight.
    pub eps_w: f64,
    /// Generator steps `first_step..=last_step` (1-based) are the data the
    /// query ran over: retained history plus the live step.
    pub first_step: u32,
    pub last_step: u32,
}

/// How far `target` lies from the ranks `value` truly occupies, given the
/// summed weight below it (`lt`) and at or below it (`le`). A value absent
/// from the data occupies the single rank `le`.
fn rank_distance(target: u64, lt: u64, le: u64) -> u64 {
    let lo = if lt == le { le } else { lt + 1 };
    if target < lo {
        lo - target
    } else {
        target.saturating_sub(le)
    }
}

/// Replays the steps the answers cover through `step_input`, in order
/// from step 1, and returns each answer's rank error as a fraction of its
/// `ε·W` (Theorem 2 holds at ≤ 1).
pub fn rank_err_fracs(
    answers: &[&Answer],
    mut step_input: impl FnMut(u32) -> Vec<(u64, u64)>,
) -> Vec<f64> {
    let steps = answers.iter().map(|a| a.last_step).max().unwrap_or(0);
    let mut values: Vec<u64> = answers.iter().map(|a| a.value).collect();
    values.sort_unstable();
    values.dedup();
    let slot_of: Vec<usize> = answers
        .iter()
        .map(|a| values.binary_search(&a.value).expect("value was inserted"))
        .collect();
    // Per answer: summed weight strictly below / at or below its value.
    let mut lt = vec![0u64; answers.len()];
    let mut le = vec![0u64; answers.len()];

    // `below[i]`: this step's weight in (values[i-1], values[i]];
    // `equal[i]`: this step's weight exactly at values[i].
    let mut below = vec![0u64; values.len() + 1];
    let mut equal = vec![0u64; values.len()];
    for step in 1..=steps {
        below.fill(0);
        equal.fill(0);
        for (v, w) in step_input(step) {
            let slot = values.partition_point(|&x| x < v);
            below[slot] += w;
            if values.get(slot) == Some(&v) {
                equal[slot] += w;
            }
        }
        // Prefix sums turn `below` into "weight at or below values[i]".
        for i in 1..values.len() {
            below[i] += below[i - 1];
        }
        for (i, a) in answers.iter().enumerate() {
            if (a.first_step..=a.last_step).contains(&step) {
                le[i] += below[slot_of[i]];
                lt[i] += below[slot_of[i]] - equal[slot_of[i]];
            }
        }
    }

    answers
        .iter()
        .enumerate()
        .map(|(i, a)| rank_distance(a.target, lt[i], le[i]) as f64 / a.eps_w)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(value: u64, target: u64, first_step: u32, last_step: u32) -> Answer {
        Answer {
            value,
            target,
            eps_w: 2.0,
            first_step,
            last_step,
        }
    }

    #[test]
    fn distance_to_the_true_rank_interval() {
        // Value occupies ranks 4..=6.
        assert_eq!(rank_distance(5, 3, 6), 0);
        assert_eq!(rank_distance(2, 3, 6), 2);
        assert_eq!(rank_distance(9, 3, 6), 3);
        // Absent value: sits at rank `le`.
        assert_eq!(rank_distance(6, 6, 6), 0);
        assert_eq!(rank_distance(8, 6, 6), 2);
    }

    #[test]
    fn counts_weights_over_the_asked_steps_only() {
        // Step 1: 10,20,30. Step 2: 20 (weight 3), 40. Step 3: 5.
        let input = |step: u32| match step {
            1 => vec![(10, 1), (20, 1), (30, 1)],
            2 => vec![(20, 3), (40, 1)],
            _ => vec![(5, 1)],
        };
        let answers = [
            // Over all steps 20 occupies ranks 3..=6.
            answer(20, 4, 1, 3),
            answer(20, 8, 1, 3),
            // Over steps 2..=3 only: 5, 20×3, 40 — 20 occupies ranks 2..=4.
            answer(20, 1, 2, 3),
            // 25 is absent; over step 1 it sits at rank 2.
            answer(25, 3, 1, 1),
        ];
        let fracs = rank_err_fracs(&answers.iter().collect::<Vec<_>>(), input);
        assert_eq!(fracs, vec![0.0, 1.0, 0.5, 0.5]);
    }
}
