//! Contract states the benches share.

use fedchain::config::SvMethod;
use fedchain::contract_fl::{FlCall, FlContract, FlParams};
use fl_chain::contract::{SmartContract, TxContext};
use fl_chain::tx::{Transaction, TxBundle};
use fl_ml::dataset::{Dataset, SyntheticDigits};
use numeric::U256;
use shapley::hierarchy::RoundPlan;

const FEATURES: usize = 16;
const CLASSES: usize = 4;
const MODEL_DIM: usize = (FEATURES + 1) * CLASSES;

/// An FL contract mid-round at a sharded bench shape: `n` owners in `k`
/// cohorts, 4 groups per cohort, a 16-feature 4-class model (dim-68
/// masked updates). Every key is advertised, the first `k / 2` cohorts'
/// updates are in, and a root has been published, so every memo is
/// warm; cohort `k / 2` submits next. No round is evaluated from this
/// state, so keys and masked words are arbitrary valid values.
pub struct MidRound {
    /// The replica in that state.
    pub replica: FlContract,
    /// The public test set the replica was built with (its parameters
    /// are `replica.params()`).
    pub test_set: Dataset,
    next_cohort: Vec<usize>,
}

impl MidRound {
    /// Builds the state for `n` owners in `k` cohorts.
    pub fn new(n: usize, k: usize) -> Self {
        let (features, classes) = (FEATURES, CLASSES);
        let params = FlParams {
            owners: (0..n as u32).collect(),
            num_groups: 4,
            sv_method: SvMethod::Stratified {
                samples_per_stratum: 2,
            },
            permutation_seed: 7,
            total_rounds: 1,
            model_dim: MODEL_DIM,
            num_features: features,
            num_classes: classes,
            frac_bits: 24,
            escrow_threshold: n / 2 + 1,
            num_cohorts: k,
        };
        let test_set = SyntheticDigits {
            instances: (2 * n).max(600),
            features,
            classes,
            ..SyntheticDigits::default()
        }
        .generate(1);
        let plan = RoundPlan::new(params.permutation_seed, 0, n, k, params.num_groups)
            .expect("every cohort holds its groups");
        let mut replica = FlContract::genesis(params, test_set.clone());
        for owner in 0..n {
            // Any element of [2, p - 2] is a valid key.
            let public_key = U256::from_u64(owner as u64 + 2).to_be_bytes();
            execute(&mut replica, owner, &FlCall::AdvertiseKey { public_key });
        }
        for &owner in plan.cohorts()[..k / 2].iter().flatten() {
            execute(&mut replica, owner, &submission(owner));
        }
        replica.state_digest();
        Self {
            replica,
            test_set,
            next_cohort: plan.cohorts()[k / 2].clone(),
        }
    }

    /// Executes the next cohort's submissions on `replica`, a clone of
    /// [`Self::replica`].
    pub fn submit_next_cohort(&self, replica: &mut FlContract) {
        for &owner in &self.next_cohort {
            execute(replica, owner, &submission(owner));
        }
    }

    /// The next cohort's submissions as a sealed bundle.
    pub fn next_bundle(&self) -> TxBundle<FlCall> {
        let txs = self
            .next_cohort
            .iter()
            .map(|&owner| Transaction::new(owner as u32, 0, submission(owner)))
            .collect();
        TxBundle::seal(txs).expect("one transaction per sender")
    }
}

fn execute(replica: &mut FlContract, owner: usize, call: &FlCall) {
    let ctx = TxContext {
        block_height: 0,
        view: 0,
        sender: owner as u32,
        tx_index: 0,
    };
    replica.execute(&ctx, call).expect("honest call");
}

/// The update `owner` submits: the contract cannot tell masked words
/// from noise.
fn submission(owner: usize) -> FlCall {
    FlCall::SubmitMaskedUpdate {
        round: 0,
        masked: vec![0x9e37_79b9_7f4a_7c15 ^ owner as u64; MODEL_DIM],
    }
}
