//! Evaluation metrics.
//!
//! The paper's utility function `u(W)` is the accuracy of the model with
//! weights `W` on the held-out test set; [`accuracy`] is therefore the
//! hinge on which every Shapley value in the system turns.

use crate::dataset::Dataset;
use crate::logreg::{argmax_rows, Design, LogisticModel};

/// Fraction of predictions matching the labels.
///
/// # Panics
///
/// Panics on length mismatch or empty inputs.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(
        predictions.len(),
        labels.len(),
        "predictions and labels must align"
    );
    assert!(!labels.is_empty(), "accuracy of zero examples is undefined");
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / labels.len() as f64
}

/// Accuracy of `model` on `data` — the paper's `u(·)`.
pub fn model_accuracy(model: &LogisticModel, data: &Dataset) -> f64 {
    accuracy(&model.predict(&data.features), &data.labels)
}

/// Accuracy of `model` over a prepared [`Design`] — bit-identical to
/// [`model_accuracy`] on the underlying dataset, but without re-running
/// the conditioning pass. The retrain utilities build the test design
/// once and evaluate every coalition's retrained model through this.
pub fn model_accuracy_design(model: &LogisticModel, design: &Design) -> f64 {
    accuracy(&model.predict_design(design), design.labels())
}

/// Reference oracle for [`model_accuracy_design`] and for the accuracy
/// utilities built on logits: softmax first, then the row argmax of the
/// *probabilities* — the same predictions at one `exp` per class per
/// row. Tests and benches hold the logit-space paths to it; nothing on
/// a round path calls it.
pub fn model_accuracy_design_reference(model: &LogisticModel, design: &Design) -> f64 {
    let predictions = argmax_rows(&model.predict_proba_design(design));
    accuracy(&predictions, design.labels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticDigits;
    use crate::logreg::{train_model, TrainConfig};

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 2]), 1.0);
        assert_eq!(accuracy(&[0, 0, 0], &[1, 1, 1]), 0.0);
        assert_eq!(accuracy(&[0, 1], &[0, 0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "zero examples")]
    fn empty_accuracy_panics() {
        let _ = accuracy(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_accuracy_panics() {
        let _ = accuracy(&[0], &[0, 1]);
    }

    #[test]
    fn model_accuracy_on_trained_model() {
        let ds = SyntheticDigits::small().generate(1);
        let model = train_model(
            &ds,
            &TrainConfig {
                learning_rate: 0.5,
                epochs: 60,
                l2: 1e-4,
            },
        );
        let acc = model_accuracy(&model, &ds);
        assert!(acc > 0.9, "training accuracy {acc} too low");
        let design = Design::new(&ds);
        assert_eq!(model_accuracy_design(&model, &design), acc);
        assert_eq!(model_accuracy_design_reference(&model, &design), acc);
    }
}
