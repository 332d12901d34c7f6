//! Synthetic GitHub Dockerfile survey (Fig. 2).
//!
//! §I: "We analyzed thousands of Dockerfiles from GitHub projects. … both the
//! top 100 popular and all surveyed projects are dominated by a few commonly
//! used images" (Fig. 2(a)), and the base images are dominated by a small set
//! of OS, language, and application configurations (Fig. 2(b)).
//!
//! The original crawl is not redistributable; this module carries a
//! representative catalogue of base-image kinds with Zipf-weighted
//! popularity and a deterministic sampler, which reproduces the figure's
//! *shape*: a handful of images covering most projects.

use simclock::SimRng;
use std::collections::BTreeMap;

/// Configuration category of a base image (the Fig. 2(b) grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConfigCategory {
    /// Bare OS images (ubuntu, alpine, debian, centos…).
    Os,
    /// Language runtime images (python, node, golang, openjdk…).
    Language,
    /// Application images (nginx, redis, mysql, httpd…).
    Application,
}

impl ConfigCategory {
    /// Category name for tables.
    pub fn name(self) -> &'static str {
        match self {
            ConfigCategory::Os => "os",
            ConfigCategory::Language => "language",
            ConfigCategory::Application => "application",
        }
    }
}

/// One surveyed project's base-image choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ProjectConfig {
    /// Base image name, e.g. `ubuntu`.
    pub image: &'static str,
    /// Its configuration category.
    pub category: ConfigCategory,
}

/// The base-image catalogue in popularity order (rank 0 most popular),
/// mirroring the well-known head of Docker Hub usage.
pub(crate) const CATALOGUE: [ProjectConfig; 14] = [
    ProjectConfig {
        image: "ubuntu",
        category: ConfigCategory::Os,
    },
    ProjectConfig {
        image: "alpine",
        category: ConfigCategory::Os,
    },
    ProjectConfig {
        image: "node",
        category: ConfigCategory::Language,
    },
    ProjectConfig {
        image: "python",
        category: ConfigCategory::Language,
    },
    ProjectConfig {
        image: "nginx",
        category: ConfigCategory::Application,
    },
    ProjectConfig {
        image: "golang",
        category: ConfigCategory::Language,
    },
    ProjectConfig {
        image: "openjdk",
        category: ConfigCategory::Language,
    },
    ProjectConfig {
        image: "debian",
        category: ConfigCategory::Os,
    },
    ProjectConfig {
        image: "redis",
        category: ConfigCategory::Application,
    },
    ProjectConfig {
        image: "mysql",
        category: ConfigCategory::Application,
    },
    ProjectConfig {
        image: "centos",
        category: ConfigCategory::Os,
    },
    ProjectConfig {
        image: "php",
        category: ConfigCategory::Language,
    },
    ProjectConfig {
        image: "httpd",
        category: ConfigCategory::Application,
    },
    ProjectConfig {
        image: "ruby",
        category: ConfigCategory::Language,
    },
];

/// A sampled survey of `n` projects' base images.
#[derive(Debug, Clone)]
pub struct DockerfileSurvey {
    /// Count of projects per base image.
    counts: BTreeMap<&'static str, usize>,
    total: usize,
}

impl DockerfileSurvey {
    /// Samples a survey of `n` projects with Zipf popularity exponent `s`
    /// (≈1.0 reproduces the paper's "dominated by a few images" shape).
    pub fn sample(n: usize, zipf_exponent: f64, seed: u64) -> Self {
        assert!(n > 0, "survey needs at least one project");
        let mut rng = SimRng::seeded(seed);
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for _ in 0..n {
            let rank = rng.zipf(CATALOGUE.len(), zipf_exponent);
            *counts.entry(CATALOGUE[rank].image).or_default() += 1;
        }
        DockerfileSurvey { counts, total: n }
    }

    /// Number of surveyed projects.
    pub fn total(&self) -> usize {
        self.total
    }

    /// `(image, count)` pairs, most popular first.
    pub fn ranked(&self) -> Vec<(&'static str, usize)> {
        let mut v: Vec<_> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Fraction of projects covered by the `k` most popular images — the
    /// Fig. 2(a) dominance statistic.
    pub fn top_k_share(&self, k: usize) -> f64 {
        let ranked = self.ranked();
        let covered: usize = ranked.iter().take(k).map(|&(_, c)| c).sum();
        covered as f64 / self.total as f64
    }

    /// Share of projects per configuration category — Fig. 2(b).
    pub fn category_shares(&self) -> BTreeMap<ConfigCategory, f64> {
        let mut shares: BTreeMap<ConfigCategory, f64> = BTreeMap::new();
        for (&image, &count) in &self.counts {
            let category = CATALOGUE
                .iter()
                .find(|p| p.image == image)
                // lint:allow(unwrap, survey counts are keyed by catalogue profiles, so every image is in CATALOGUE)
                .expect("surveyed image must come from the catalogue")
                .category;
            *shares.entry(category).or_default() += count as f64;
        }
        for v in shares.values_mut() {
            *v /= self.total as f64;
        }
        shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn few_images_dominate() {
        let survey = DockerfileSurvey::sample(5000, 1.0, 1);
        // Fig 2(a) shape: top 4 of 14 images cover well over half.
        assert!(survey.top_k_share(4) > 0.55, "{}", survey.top_k_share(4));
        assert!(survey.top_k_share(14) > 0.999);
        // Monotone in k.
        assert!(survey.top_k_share(2) <= survey.top_k_share(6));
    }

    #[test]
    fn most_popular_is_low_rank() {
        let survey = DockerfileSurvey::sample(5000, 1.0, 2);
        let top = survey.ranked()[0].0;
        assert!(
            ["ubuntu", "alpine", "node"].contains(&top),
            "unexpected most-popular image {top}"
        );
    }

    #[test]
    fn category_shares_sum_to_one() {
        let survey = DockerfileSurvey::sample(2000, 1.1, 3);
        let shares = survey.category_shares();
        let sum: f64 = shares.values().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // All three categories represented in a big sample.
        assert_eq!(shares.len(), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = DockerfileSurvey::sample(500, 1.0, 42).ranked();
        let b = DockerfileSurvey::sample(500, 1.0, 42).ranked();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one project")]
    fn empty_survey_rejected() {
        let _ = DockerfileSurvey::sample(0, 1.0, 0);
    }
}
