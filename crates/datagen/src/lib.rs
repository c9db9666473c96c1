#![warn(missing_docs)]

//! Synthetic network-configuration dataset generator.
//!
//! The paper evaluates Concord on two proprietary production datasets:
//! mobile edge datacenters (roles E1–E2) and a large cloud WAN (roles
//! W1–W8). Those configurations are not publicly available, so this crate
//! generates seeded synthetic equivalents that exercise the same code
//! paths (see DESIGN.md §2 for the substitution argument):
//!
//! - **edge roles** use Arista-style indentation hierarchy with the exact
//!   invariant structure of the paper's Figure 1 (loopback ↔ prefix list,
//!   port-channel number ↔ EVPN MAC segment, VLAN ↔ route distinguisher,
//!   VLAN ↔ metadata entries, static route ↔ aggregate),
//! - **WAN roles** mix indentation-based and flat "set"-style syntaxes
//!   (flat roles gain nothing from context embedding, reproducing the
//!   Figure 7 observation), with role-specific features: symmetric
//!   perimeter ACLs, internal/bogon prefix-list subsumption, paired
//!   IPv4/IPv6 BGP policies, and globally shared "magic constant" lines,
//! - deterministic **fault injection** reproduces the §5.5 incident
//!   classes for the utility experiments.
//!
//! Every generator is deterministic in its seed, so experiments are
//! reproducible.

mod edge;
#[cfg(test)]
mod edge_tests;
pub mod faults;
mod wan;
#[cfg(test)]
mod wan_feature_tests;

use concord_rng::rngs::StdRng;
use concord_rng::SeedableRng;

/// The syntactic style of a generated role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// Arista-style indentation hierarchy (edge datacenters).
    EdgeIndent,
    /// Vendor CLI with indentation blocks (some WAN roles).
    WanIndent,
    /// Flat `set`-style syntax carrying full context per line.
    WanFlat,
}

/// The specification of one device role.
#[derive(Debug, Clone)]
pub struct RoleSpec {
    /// Role name (e.g. `E1`, `W4`).
    pub name: String,
    /// Number of devices (configuration files).
    pub devices: usize,
    /// Syntax style.
    pub style: Style,
    /// Relative per-device size knob (number of repeated blocks).
    pub blocks: usize,
    /// Whether to also emit a metadata file for the role (§3.7). Only
    /// edge roles carry metadata; a WAN spec that asks for it is refused.
    pub with_metadata: bool,
}

/// A generated role: named configurations plus optional metadata files.
#[derive(Debug, Clone)]
pub struct GeneratedRole {
    /// The role name.
    pub name: String,
    /// `(device name, configuration text)` pairs.
    pub configs: Vec<(String, String)>,
    /// `(file name, text)` metadata files.
    pub metadata: Vec<(String, String)>,
}

impl GeneratedRole {
    /// Total number of configuration lines across devices.
    pub fn total_lines(&self) -> usize {
        self.configs
            .iter()
            .map(|(_, text)| text.lines().filter(|l| !l.trim().is_empty()).count())
            .sum()
    }
}

/// Returns the ten standard roles (E1, E2, W1–W8) with sizes shaped like
/// Table 3 of the paper, multiplied by `scale` (1.0 is laptop-friendly;
/// the paper's datasets are 1–3 orders of magnitude larger).
pub fn standard_roles(scale: f64) -> Vec<RoleSpec> {
    let n = |base: usize| ((base as f64 * scale).round() as usize).max(2);
    vec![
        RoleSpec {
            name: "E1".into(),
            devices: n(24),
            style: Style::EdgeIndent,
            blocks: 6,
            with_metadata: true,
        },
        RoleSpec {
            name: "E2".into(),
            devices: n(12),
            style: Style::EdgeIndent,
            blocks: 3,
            with_metadata: true,
        },
        RoleSpec {
            name: "W1".into(),
            devices: n(20),
            style: Style::WanIndent,
            blocks: 8,
            with_metadata: false,
        },
        RoleSpec {
            name: "W2".into(),
            devices: n(30),
            style: Style::WanIndent,
            blocks: 14,
            with_metadata: false,
        },
        RoleSpec {
            name: "W3".into(),
            devices: n(26),
            style: Style::WanIndent,
            blocks: 10,
            with_metadata: false,
        },
        RoleSpec {
            name: "W4".into(),
            devices: n(60),
            style: Style::WanFlat,
            blocks: 18,
            with_metadata: false,
        },
        RoleSpec {
            name: "W5".into(),
            devices: n(50),
            style: Style::WanFlat,
            blocks: 12,
            with_metadata: false,
        },
        RoleSpec {
            name: "W6".into(),
            devices: n(64),
            style: Style::WanFlat,
            blocks: 16,
            with_metadata: false,
        },
        RoleSpec {
            name: "W7".into(),
            devices: n(28),
            style: Style::WanFlat,
            blocks: 8,
            with_metadata: false,
        },
        RoleSpec {
            name: "W8".into(),
            devices: n(10),
            style: Style::WanFlat,
            blocks: 5,
            with_metadata: false,
        },
    ]
}

/// Generates one role deterministically from `seed` (with the planted
/// anomaly drift — the occasional mistyped line).
pub fn generate_role(spec: &RoleSpec, seed: u64) -> GeneratedRole {
    generate_role_with(spec, seed, true)
}

/// Generates one role, controlling whether anomaly drift (mistyped
/// lines) is planted. Clean datasets (`drift = false`) serve as the
/// ground-truth oracle for precision experiments.
///
/// # Panics
///
/// Panics on a WAN spec with `with_metadata` set: the WAN generators emit
/// no metadata, and a suite asking for it would silently test none.
pub fn generate_role_with(spec: &RoleSpec, seed: u64, drift: bool) -> GeneratedRole {
    assert!(
        !spec.with_metadata || spec.style == Style::EdgeIndent,
        "role {}: {:?} roles emit no metadata; set with_metadata: false",
        spec.name,
        spec.style
    );
    let mut rng = StdRng::seed_from_u64(seed ^ hash_name(&spec.name));
    match spec.style {
        Style::EdgeIndent => edge::generate(spec, &mut rng, drift),
        Style::WanIndent => wan::generate_indent(spec, &mut rng, drift),
        Style::WanFlat => wan::generate_flat(spec, &mut rng, drift),
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, stable across runs (unlike `DefaultHasher` between Rust
    // versions this is fixed by construction).
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_roles_cover_table_3() {
        let roles = standard_roles(1.0);
        let names: Vec<&str> = roles.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["E1", "E2", "W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8"]
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = &standard_roles(0.5)[0];
        let a = generate_role(spec, 42);
        let b = generate_role(spec, 42);
        assert_eq!(a.configs, b.configs);
        assert_eq!(a.metadata, b.metadata);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = &standard_roles(0.5)[0];
        let a = generate_role(spec, 1);
        let b = generate_role(spec, 2);
        assert_ne!(a.configs, b.configs);
    }

    #[test]
    fn scale_changes_device_count() {
        let small = standard_roles(0.25);
        let large = standard_roles(1.0);
        assert!(small[0].devices < large[0].devices);
        // Never below the floor of 2 devices.
        for role in standard_roles(0.01) {
            assert!(role.devices >= 2);
        }
    }

    #[test]
    fn every_role_generates_content() {
        for spec in standard_roles(0.2) {
            let role = generate_role(&spec, 7);
            assert_eq!(role.configs.len(), spec.devices, "{}", spec.name);
            assert!(role.total_lines() > spec.devices * 10, "{}", spec.name);
            if spec.with_metadata {
                assert!(!role.metadata.is_empty(), "{}", spec.name);
            }
        }
    }

    #[test]
    fn wan_roles_refuse_metadata() {
        for style in [Style::WanIndent, Style::WanFlat] {
            let spec = RoleSpec {
                name: "W-META".into(),
                devices: 2,
                style,
                blocks: 2,
                with_metadata: true,
            };
            let refusal = std::panic::catch_unwind(|| generate_role(&spec, 1))
                .expect_err("a WAN role carries no metadata");
            let message = refusal.downcast_ref::<String>().expect("formatted message");
            assert!(
                message.contains("role W-META") && message.contains(&format!("{style:?}")),
                "{message}"
            );
        }
    }

    #[test]
    fn device_names_are_unique() {
        let spec = &standard_roles(1.0)[3];
        let role = generate_role(spec, 9);
        let mut names: Vec<&String> = role.configs.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), role.configs.len());
    }
}
