//! Fleet topology: which replica set serves each shard-range.
//!
//! A [`FleetConfig`] is an ordered list of *replica groups*. Group `g`
//! owns shard-range `g` of the fleet (the coordinator routes ingest to
//! groups exactly as it previously routed to single nodes), and lists
//! its replicas in preference order: the coordinator reads from the
//! first reachable replica and fails over down the list. Every replica
//! of a group must be fed the same data — the coordinator's writes go
//! to all of them — which is what makes failover answers byte-identical
//! to healthy ones.
//!
//! Three ways to build one:
//! * programmatically — [`FleetConfig::new`];
//! * from a spec string ([`FleetConfig::parse`]) — groups separated by
//!   `;`, replicas within a group by `,`: `"a:7001,b:7001;a:7002,b:7002"`
//!   is two groups × two replicas;
//! * from a config file ([`FleetConfig::from_file`]) — one group per
//!   line, `#` comments and blank lines ignored.
//!
//! [`FleetConfig::strict`] controls what happens when *every* replica of
//! a group is down: degraded bound-widened answers (default) or a typed
//! refusal.

use std::fs;
use std::io;
use std::path::Path;

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, format!("fleet: {msg}"))
}

/// Replica-group topology for a coordinator (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    groups: Vec<Vec<String>>,
    strict: bool,
}

impl FleetConfig {
    /// Build from explicit groups: `groups[g]` lists group `g`'s
    /// replica addresses in failover-preference order.
    pub fn new(groups: Vec<Vec<String>>) -> io::Result<FleetConfig> {
        if groups.is_empty() {
            return Err(bad("no replica groups".into()));
        }
        for (g, replicas) in groups.iter().enumerate() {
            if replicas.is_empty() {
                return Err(bad(format!("group {g} has no replicas")));
            }
            for addr in replicas {
                if addr.is_empty() || !addr.contains(':') {
                    return Err(bad(format!(
                        "group {g} has malformed address {addr:?} (want host:port)"
                    )));
                }
            }
        }
        Ok(FleetConfig {
            groups,
            strict: false,
        })
    }

    /// Parse a spec string: groups split on `;`, replicas on `,`,
    /// whitespace trimmed. `"a:1,b:1;a:2,b:2"` = two groups × two
    /// replicas.
    pub fn parse(spec: &str) -> io::Result<FleetConfig> {
        let groups: Vec<Vec<String>> = spec
            .split(';')
            .map(|g| {
                g.split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(String::from)
                    .collect()
            })
            .filter(|g: &Vec<String>| !g.is_empty())
            .collect();
        FleetConfig::new(groups).map_err(|e| bad(format!("spec {spec:?}: {e}")))
    }

    /// Load from a config file: one group per line (replicas separated
    /// by commas or whitespace), `#` comments and blank lines skipped.
    pub fn from_file(path: impl AsRef<Path>) -> io::Result<FleetConfig> {
        let path = path.as_ref();
        let text = fs::read_to_string(path)?;
        let groups: Vec<Vec<String>> = text
            .lines()
            .map(|line| line.split('#').next().unwrap_or("").trim())
            .filter(|line| !line.is_empty())
            .map(|line| {
                line.split(|c: char| c == ',' || c.is_whitespace())
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(String::from)
                    .collect()
            })
            .collect();
        FleetConfig::new(groups).map_err(|e| bad(format!("{}: {e}", path.display())))
    }

    /// Set strict mode: refuse (typed) instead of answering degraded
    /// when a whole replica group is unreachable.
    pub fn strict(mut self, strict: bool) -> FleetConfig {
        self.strict = strict;
        self
    }

    /// The replica groups, in shard-range order.
    pub fn groups(&self) -> &[Vec<String>] {
        &self.groups
    }

    /// Whether degraded answers are refused.
    pub fn is_strict(&self) -> bool {
        self.strict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_groups_and_replicas() {
        let f = FleetConfig::parse("a:7001,b:7001;a:7002, b:7002").unwrap();
        assert_eq!(
            f.groups(),
            &[
                vec!["a:7001".to_string(), "b:7001".to_string()],
                vec!["a:7002".to_string(), "b:7002".to_string()],
            ]
        );
        assert!(!f.is_strict());
        assert!(f.clone().strict(true).is_strict());
        // Single group, single replica.
        let f = FleetConfig::parse("localhost:9000").unwrap();
        assert_eq!(f.groups().len(), 1);
        assert_eq!(f.groups()[0].len(), 1);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for spec in ["", ";", ",", "noport", "a:1;noport"] {
            assert!(FleetConfig::parse(spec).is_err(), "accepted {spec:?}");
        }
        // Stray separators are tolerated, like trailing commas.
        assert_eq!(FleetConfig::parse("a:1,,;").unwrap().groups().len(), 1);
        assert!(FleetConfig::new(vec![]).is_err());
        assert!(FleetConfig::new(vec![vec![]]).is_err());
        assert!(FleetConfig::new(vec![vec!["".into()]]).is_err());
    }

    #[test]
    fn file_loading_skips_comments_and_blanks() {
        let dir = std::env::temp_dir().join(format!("hsq-fleet-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.conf");
        fs::write(
            &path,
            "# primary shard-range\na:7001, b:7001\n\na:7002 b:7002  # second range\n",
        )
        .unwrap();
        let f = FleetConfig::from_file(&path).unwrap();
        assert_eq!(
            f.groups(),
            &[
                vec!["a:7001".to_string(), "b:7001".to_string()],
                vec!["a:7002".to_string(), "b:7002".to_string()],
            ]
        );
        fs::write(&path, "# only comments\n").unwrap();
        assert!(FleetConfig::from_file(&path).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
