//! Language runtime model: per-language cold initialization and warm-up.
//!
//! Fig. 4(a)/(b) of the paper compares an S3-download benchmark across
//! languages: Go's cold execution is 3.06× its hot execution, and for Java —
//! whose program "must be compiled into bytecode files and then translated
//! and executed by the JVM" — the cold start "even doubles the already long
//! execution". §II-B adds that interpreted/JIT languages pay extra at cold
//! start.

use simclock::SimDuration;

/// The language runtime packaged inside a container image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LanguageRuntime {
    /// CPython interpreter: moderate startup (interpreter boot + imports).
    Python,
    /// Static native binary: near-instant startup.
    Go,
    /// JVM: slow boot plus JIT warm-up on first execution.
    Java,
    /// Node.js: V8 boot + module graph load.
    NodeJs,
    /// Ruby interpreter, for catalogue breadth.
    Ruby,
    /// Anything precompiled without a managed runtime (C/C++/Rust).
    Native,
}

impl LanguageRuntime {
    /// All modelled runtimes, in catalogue order.
    pub const ALL: [LanguageRuntime; 6] = [
        LanguageRuntime::Python,
        LanguageRuntime::Go,
        LanguageRuntime::Java,
        LanguageRuntime::NodeJs,
        LanguageRuntime::Ruby,
        LanguageRuntime::Native,
    ];

    /// One-time runtime initialization when a container boots cold
    /// (interpreter/VM start, standard library load). Reference-server values.
    pub(crate) fn cold_init(self) -> SimDuration {
        match self {
            LanguageRuntime::Python => SimDuration::from_millis(300),
            LanguageRuntime::Go => SimDuration::from_millis(45),
            LanguageRuntime::Java => SimDuration::from_millis(400),
            LanguageRuntime::NodeJs => SimDuration::from_millis(240),
            LanguageRuntime::Ruby => SimDuration::from_millis(350),
            LanguageRuntime::Native => SimDuration::from_millis(12),
        }
    }

    /// Multiplicative penalty on the *first* execution in a fresh runtime
    /// (JIT compilation, bytecode verification, lazy imports). Subsequent
    /// executions in the same runtime run at 1.0×.
    pub(crate) fn first_exec_penalty(self) -> f64 {
        match self {
            LanguageRuntime::Python => 1.08,
            LanguageRuntime::Go => 1.02,
            LanguageRuntime::Java => 1.45,
            LanguageRuntime::NodeJs => 1.12,
            LanguageRuntime::Ruby => 1.10,
            LanguageRuntime::Native => 1.01,
        }
    }

    /// Resident memory of the idle runtime inside a live container, beyond
    /// the container's own overhead.
    pub(crate) fn idle_mem_bytes(self) -> u64 {
        match self {
            LanguageRuntime::Python => 9 * 1024 * 1024,
            LanguageRuntime::Go => 2 * 1024 * 1024,
            LanguageRuntime::Java => 48 * 1024 * 1024,
            LanguageRuntime::NodeJs => 14 * 1024 * 1024,
            LanguageRuntime::Ruby => 11 * 1024 * 1024,
            LanguageRuntime::Native => 512 * 1024,
        }
    }

    /// Conventional name used in runtime keys and report tables.
    pub fn name(self) -> &'static str {
        match self {
            LanguageRuntime::Python => "python",
            LanguageRuntime::Go => "go",
            LanguageRuntime::Java => "java",
            LanguageRuntime::NodeJs => "nodejs",
            LanguageRuntime::Ruby => "ruby",
            LanguageRuntime::Native => "native",
        }
    }
}

impl std::fmt::Display for LanguageRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn java_boots_slowest_go_fastest_of_managed() {
        let managed = [
            LanguageRuntime::Python,
            LanguageRuntime::Go,
            LanguageRuntime::Java,
            LanguageRuntime::NodeJs,
        ];
        let slowest = managed.iter().max_by_key(|r| r.cold_init()).unwrap();
        let fastest = managed.iter().min_by_key(|r| r.cold_init()).unwrap();
        assert_eq!(*slowest, LanguageRuntime::Java);
        assert_eq!(*fastest, LanguageRuntime::Go);
    }

    #[test]
    fn jit_penalty_largest_for_java() {
        for r in LanguageRuntime::ALL {
            assert!(r.first_exec_penalty() >= 1.0);
            if r != LanguageRuntime::Java {
                assert!(r.first_exec_penalty() < LanguageRuntime::Java.first_exec_penalty());
            }
        }
    }

    #[test]
    fn names_round_trip_display() {
        for r in LanguageRuntime::ALL {
            assert_eq!(format!("{r}"), r.name());
        }
    }

    #[test]
    fn jvm_memory_dominates() {
        let max = LanguageRuntime::ALL
            .iter()
            .max_by_key(|r| r.idle_mem_bytes())
            .copied()
            .unwrap();
        assert_eq!(max, LanguageRuntime::Java);
    }
}
