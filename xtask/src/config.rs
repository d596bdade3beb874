//! The lint policy.
//!
//! [`LintConfig::default`] *is* the committed workspace policy — there is
//! no configuration file. Changing which modules are hot or which fns the
//! call graph trusts is an edit to this file, reviewed as a diff like any
//! other code. The fields stay
//! public so the fixture corpus can lint a pretend tree under a variation
//! of the policy (`tests/fixtures.rs` extends `known_infallible`).

/// The full lint configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Files (workspace-relative) whose fn bodies are the per-event hot
    /// datapath: `alloc-in-datapath` and the hot half of `panic-path` apply
    /// there, and every non-test, non-constructor fn in them is a
    /// call-graph entry point for
    /// `panic-reachable` / `alloc-reachable`.
    pub hot_modules: Vec<String>,
    /// Exact fn names exempt from the alloc rule: constructors are where
    /// preallocation is supposed to happen.
    pub constructor_names: Vec<String>,
    /// Fn-name prefixes exempt from the alloc rule.
    pub constructor_prefixes: Vec<String>,
    /// Fns (qname `Owner::name` or bare name) the call graph treats as
    /// infallible and never traverses into — reserved for hand-proven
    /// helpers where per-call-site `lint:allow` would be noise.
    pub known_infallible: Vec<String>,
}

fn strings(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            hot_modules: strings(&[
                "crates/simnet/src/arena.rs",
                "crates/simnet/src/queue.rs",
                "crates/simnet/src/port.rs",
                "crates/simnet/src/sim.rs",
                "crates/simnet/src/packet.rs",
                "crates/simnet/src/host.rs",
                "crates/simnet/src/endpoint.rs",
                "crates/simcore/src/wheel.rs",
                "crates/simcore/src/event.rs",
            ]),
            constructor_names: strings(&["new", "default"]),
            constructor_prefixes: strings(&["new_", "with_"]),
            // SimRng::next_u64 is the xoshiro256** core: every subscript is
            // a constant index into the fixed [u64; 4] state array, so no
            // bounds check can fail.
            known_infallible: strings(&["SimRng::next_u64"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The policy by name: a module that drops out of (or sneaks into)
    /// the hot list fails here before it changes a lint report.
    #[test]
    fn policy_names_the_hot_modules() {
        let cfg = LintConfig::default();
        assert_eq!(
            cfg.hot_modules,
            [
                "crates/simnet/src/arena.rs",
                "crates/simnet/src/queue.rs",
                "crates/simnet/src/port.rs",
                "crates/simnet/src/sim.rs",
                "crates/simnet/src/packet.rs",
                "crates/simnet/src/host.rs",
                "crates/simnet/src/endpoint.rs",
                "crates/simcore/src/wheel.rs",
                "crates/simcore/src/event.rs",
            ]
        );
        assert_eq!(cfg.known_infallible, ["SimRng::next_u64"]);
    }
}
