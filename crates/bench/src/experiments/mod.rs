//! One module per paper artefact.

pub mod ext_adversary;
pub mod ext_privacy;
pub mod ext_rounds;
pub mod fig1;
pub mod fig2;
#[cfg(test)]
mod render_tests;
pub mod table1;

use fedchain::config::FlConfig;
use fl_ml::dataset::SyntheticDigits;
use fl_ml::TrainConfig;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced instances/epochs: the same qualitative shape in seconds.
    Fast,
    /// The paper's setting: 5620 instances, 64 features, 9 owners.
    Paper,
}

impl Scale {
    /// Parses a CLI token.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fast" => Some(Self::Fast),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }

    /// The base configuration for this scale (σ applied by the caller).
    pub fn config(&self) -> FlConfig {
        let mut config = FlConfig::paper_setting();
        match self {
            Scale::Paper => {
                config.train = TrainConfig {
                    learning_rate: 0.5,
                    epochs: 30,
                    l2: 1e-4,
                };
            }
            Scale::Fast => {
                config.data = SyntheticDigits {
                    instances: 4000,
                    ..SyntheticDigits::default()
                };
                config.train = TrainConfig {
                    learning_rate: 0.5,
                    epochs: 20,
                    l2: 1e-4,
                };
            }
        }
        config
    }

    /// The σ values swept by the figures (the paper plots σ ∈ {0, …, 2}).
    pub fn sigmas(&self) -> Vec<f64> {
        vec![0.0, 1.0, 2.0, 4.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("fast"), Some(Scale::Fast));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("other"), None);
    }

    #[test]
    fn configs_are_valid() {
        Scale::Fast.config().validate().unwrap();
        Scale::Paper.config().validate().unwrap();
    }

    #[test]
    fn paper_scale_matches_paper_numbers() {
        let c = Scale::Paper.config();
        assert_eq!(c.num_owners, 9);
        assert_eq!(c.data.instances, 5620);
        assert_eq!(c.data.features, 64);
        assert_eq!(c.data.classes, 10);
    }
}
