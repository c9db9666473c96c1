//! The contract model (§3.4, Table 2).
//!
//! Contracts are serializable, self-contained statements over pattern
//! *text* (not dense ids), so a contract file learned from one dataset can
//! be checked against any other. [`Contract::describe`] renders the
//! `forall/exists` notation used throughout the paper.

use concord_json::{Error as JsonError, FromJson, Json, ToJson};

use concord_types::{Transform, ValueType};

/// The relation of a relational contract.
///
/// All relations are evaluated as `F(v1, v2)` where `v1` is the transformed
/// antecedent value and `v2` the transformed consequent value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RelationKind {
    /// `v1 == v2`.
    Equals,
    /// `v2` (an IP network) contains `v1` (an address or subnet).
    Contains,
    /// `v2` starts with `v1` (string form).
    StartsWith,
    /// `v2` ends with `v1` (string form).
    EndsWith,
}

impl RelationKind {
    /// Returns the lowercase name used in rendered contracts.
    pub fn name(&self) -> &'static str {
        match self {
            RelationKind::Equals => "equals",
            RelationKind::Contains => "contains",
            RelationKind::StartsWith => "startswith",
            RelationKind::EndsWith => "endswith",
        }
    }

    /// Returns `true` for relations that are transitive and therefore
    /// subject to contract minimization (§3.6).
    pub fn is_transitive(&self) -> bool {
        // `contains` is transitive as well, but relates values of
        // different shapes (address vs network); the paper minimizes the
        // string-like relations.
        matches!(
            self,
            RelationKind::Equals | RelationKind::StartsWith | RelationKind::EndsWith
        )
    }

    /// All relation kinds.
    pub fn all() -> [RelationKind; 4] {
        [
            RelationKind::Equals,
            RelationKind::Contains,
            RelationKind::StartsWith,
            RelationKind::EndsWith,
        ]
    }
}

impl std::fmt::Display for RelationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One side of a relational contract: a pattern, a parameter position, and
/// the transformation applied to the parameter's value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternRef {
    /// The full (embedded) pattern text.
    pub pattern: String,
    /// Zero-based index into the pattern's bound parameters.
    pub param: u16,
    /// The transformation applied to the parameter value.
    pub transform: Transform,
}

impl PatternRef {
    /// Renders the transformed parameter access, e.g. `hex(l1.a)`.
    pub fn render_access(&self, line_var: &str, param_name: &str) -> String {
        self.transform
            .render_call(&format!("{line_var}.{param_name}"))
    }
}

/// A relational contract (§3.5):
/// `forall l1 ~ p1, exists l2 ~ p2 such that F(t1(l1.x), t2(l2.y))`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationalContract {
    /// The universally quantified side.
    pub antecedent: PatternRef,
    /// The existentially quantified side.
    pub consequent: PatternRef,
    /// The relation between the transformed values.
    pub relation: RelationKind,
}

/// A learned (or manually authored) configuration contract.
#[derive(Debug, Clone, PartialEq)]
pub enum Contract {
    /// `exists l ~ p`: the configuration must contain at least one line
    /// matching `pattern`.
    Present {
        /// The required pattern.
        pattern: String,
    },
    /// Constant-learning variant of `Present`: the configuration must
    /// contain this exact (embedded) line text.
    PresentExact {
        /// The required embedded line text.
        line: String,
    },
    /// Whenever a line matches `first`, the immediately following line
    /// must match `second`.
    Ordering {
        /// The pattern of the leading line.
        first: String,
        /// The pattern the next line must match.
        second: String,
    },
    /// Only the listed types may appear at hole `hole` of the
    /// type-agnostic pattern (e.g. `!(exists l ~ ip address [pfx4])`).
    Type {
        /// The type-agnostic pattern, holes rendered as `[?]`.
        pattern: String,
        /// Zero-based hole index the restriction applies to.
        hole: u16,
        /// The allowed types at that hole.
        valid: Vec<ValueType>,
    },
    /// Values of the parameter form an equidistant (arithmetic) sequence
    /// within each configuration, e.g. `seq 10`, `seq 20`, `seq 30`.
    Sequence {
        /// The pattern whose instances form the sequence.
        pattern: String,
        /// Zero-based parameter index.
        param: u16,
    },
    /// Values of the parameter are globally unique across all
    /// configurations.
    Unique {
        /// The pattern carrying the unique values.
        pattern: String,
        /// Zero-based parameter index.
        param: u16,
        /// `true` when training additionally showed exactly one instance
        /// per configuration (e.g. `hostname`), in which case a missing
        /// line is also a violation.
        once_per_config: bool,
    },
    /// Values of a numeric parameter stay within the interval observed
    /// during training (extension category, disabled by default).
    Range {
        /// The pattern carrying the bounded values.
        pattern: String,
        /// Zero-based parameter index.
        param: u16,
        /// Smallest observed value.
        min: concord_types::BigNum,
        /// Largest observed value.
        max: concord_types::BigNum,
    },
    /// A relational contract.
    Relational(RelationalContract),
}

impl Contract {
    /// Returns the contract's category name (the column headings of
    /// Tables 4–7).
    pub fn category(&self) -> &'static str {
        match self {
            Contract::Present { .. } | Contract::PresentExact { .. } => "present",
            Contract::Ordering { .. } => "ordering",
            Contract::Type { .. } => "type",
            Contract::Sequence { .. } => "sequence",
            Contract::Unique { .. } => "unique",
            Contract::Range { .. } => "range",
            Contract::Relational(r) => match r.relation {
                RelationKind::Equals => "equality",
                RelationKind::Contains => "contains",
                RelationKind::StartsWith | RelationKind::EndsWith => "affix",
            },
        }
    }

    /// Renders the contract in the paper's `forall/exists` notation.
    pub fn describe(&self) -> String {
        match self {
            Contract::Present { pattern } => format!("exists l ~ {pattern}"),
            Contract::PresentExact { line } => format!("exists l = {line:?}"),
            Contract::Ordering { first, second } => format!(
                "forall l1 ~ {first}\nexists l2 ~ {second}\nequals(index(l1) + 1, index(l2))"
            ),
            Contract::Type {
                pattern,
                hole,
                valid,
            } => {
                let names: Vec<&str> = valid.iter().map(ValueType::name).collect();
                format!("type(hole {hole} of {pattern}) in {{{}}}", names.join(", "))
            }
            Contract::Sequence { pattern, param } => {
                format!("sequence(param {param} of {pattern})")
            }
            Contract::Unique {
                pattern,
                param,
                once_per_config,
            } => {
                if *once_per_config {
                    format!("unique(param {param} of {pattern}), exactly once per config")
                } else {
                    format!("unique(param {param} of {pattern})")
                }
            }
            Contract::Range {
                pattern,
                param,
                min,
                max,
            } => {
                format!("range(param {param} of {pattern}) in [{min}, {max}]")
            }
            Contract::Relational(r) => {
                let a_name = param_name(&r.antecedent.pattern, r.antecedent.param);
                let c_name = param_name(&r.consequent.pattern, r.consequent.param);
                let a_access = r.antecedent.render_access("l1", &a_name);
                let c_access = r.consequent.render_access("l2", &c_name);
                // Argument order follows the paper's convention: the
                // container / longer string comes first (`contains(l2.b,
                // l1.a)`, `endswith(str(l2.b), str(l1.a))`), while
                // symmetric equality lists the antecedent first.
                let formula = match r.relation {
                    RelationKind::Equals => {
                        format!("{}({a_access}, {c_access})", r.relation.name())
                    }
                    RelationKind::Contains | RelationKind::StartsWith | RelationKind::EndsWith => {
                        format!("{}({c_access}, {a_access})", r.relation.name())
                    }
                };
                format!(
                    "forall l1 ~ {}\nexists l2 ~ {}\n{formula}",
                    r.antecedent.pattern, r.consequent.pattern,
                )
            }
        }
    }
}

impl std::fmt::Display for Contract {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

/// Looks up the `i`-th bound variable name of a pattern (falls back to a
/// positional name for patterns without named holes).
fn param_name(pattern: &str, index: u16) -> String {
    let holes = concord_lexer::pattern_holes(pattern);
    holes
        .iter()
        .filter(|(name, _)| !name.is_empty())
        .nth(usize::from(index))
        .map(|(name, _)| name.clone())
        .unwrap_or_else(|| format!("p{index}"))
}

/// A set of learned contracts plus learning statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContractSet {
    /// The contracts, in a stable order.
    pub contracts: Vec<Contract>,
    /// Number of relational contracts before minimization (§3.6); used to
    /// compute the reduction factor of Figure 8.
    pub relational_before_minimization: usize,
}

impl ContractSet {
    /// Returns the number of contracts.
    pub fn len(&self) -> usize {
        self.contracts.len()
    }

    /// Returns `true` when no contracts were learned.
    pub fn is_empty(&self) -> bool {
        self.contracts.is_empty()
    }

    /// Counts contracts per category name.
    pub fn count_by_category(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut out = std::collections::BTreeMap::new();
        for c in &self.contracts {
            *out.entry(c.category()).or_insert(0) += 1;
        }
        out
    }

    /// Serializes the set to pretty JSON (the `concord learn` output
    /// format, §4).
    pub fn to_json(&self) -> String {
        concord_json::to_string_pretty(self).expect("contract serialization cannot fail")
    }

    /// Deserializes a set from JSON.
    pub fn from_json(json: &str) -> Result<ContractSet, JsonError> {
        concord_json::from_str(json)
    }
}

impl ToJson for RelationKind {
    fn to_json(&self) -> Json {
        Json::Str(format!("{self:?}"))
    }
}

impl FromJson for RelationKind {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str() {
            Some("Equals") => Ok(RelationKind::Equals),
            Some("Contains") => Ok(RelationKind::Contains),
            Some("StartsWith") => Ok(RelationKind::StartsWith),
            Some("EndsWith") => Ok(RelationKind::EndsWith),
            _ => Err(JsonError::custom(format!("unknown RelationKind {value}"))),
        }
    }
}

impl ToJson for PatternRef {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("pattern".to_string(), self.pattern.to_json()),
            ("param".to_string(), self.param.to_json()),
            ("transform".to_string(), self.transform.to_json()),
        ])
    }
}

impl FromJson for PatternRef {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(PatternRef {
            pattern: field(value, "pattern")?,
            param: field(value, "param")?,
            transform: field(value, "transform")?,
        })
    }
}

impl ToJson for RelationalContract {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("antecedent".to_string(), self.antecedent.to_json()),
            ("consequent".to_string(), self.consequent.to_json()),
            ("relation".to_string(), self.relation.to_json()),
        ])
    }
}

impl FromJson for RelationalContract {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(RelationalContract {
            antecedent: field(value, "antecedent")?,
            consequent: field(value, "consequent")?,
            relation: field(value, "relation")?,
        })
    }
}

impl ToJson for Contract {
    fn to_json(&self) -> Json {
        let obj = |pairs: Vec<(&str, Json)>| {
            Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        match self {
            Contract::Present { pattern } => {
                Json::tagged("Present", obj(vec![("pattern", pattern.to_json())]))
            }
            Contract::PresentExact { line } => {
                Json::tagged("PresentExact", obj(vec![("line", line.to_json())]))
            }
            Contract::Ordering { first, second } => Json::tagged(
                "Ordering",
                obj(vec![
                    ("first", first.to_json()),
                    ("second", second.to_json()),
                ]),
            ),
            Contract::Type {
                pattern,
                hole,
                valid,
            } => Json::tagged(
                "Type",
                obj(vec![
                    ("pattern", pattern.to_json()),
                    ("hole", hole.to_json()),
                    ("valid", valid.to_json()),
                ]),
            ),
            Contract::Sequence { pattern, param } => Json::tagged(
                "Sequence",
                obj(vec![
                    ("pattern", pattern.to_json()),
                    ("param", param.to_json()),
                ]),
            ),
            Contract::Unique {
                pattern,
                param,
                once_per_config,
            } => Json::tagged(
                "Unique",
                obj(vec![
                    ("pattern", pattern.to_json()),
                    ("param", param.to_json()),
                    ("once_per_config", once_per_config.to_json()),
                ]),
            ),
            Contract::Range {
                pattern,
                param,
                min,
                max,
            } => Json::tagged(
                "Range",
                obj(vec![
                    ("pattern", pattern.to_json()),
                    ("param", param.to_json()),
                    ("min", min.to_json()),
                    ("max", max.to_json()),
                ]),
            ),
            Contract::Relational(r) => Json::tagged("Relational", r.to_json()),
        }
    }
}

impl FromJson for Contract {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let [(tag, inner)] = value
            .as_object()
            .ok_or_else(|| JsonError::custom(format!("expected Contract object, got {value}")))?
        else {
            return Err(JsonError::custom(
                "expected one-key Contract object".to_string(),
            ));
        };
        match tag.as_str() {
            "Present" => Ok(Contract::Present {
                pattern: field(inner, "pattern")?,
            }),
            "PresentExact" => Ok(Contract::PresentExact {
                line: field(inner, "line")?,
            }),
            "Ordering" => Ok(Contract::Ordering {
                first: field(inner, "first")?,
                second: field(inner, "second")?,
            }),
            "Type" => Ok(Contract::Type {
                pattern: field(inner, "pattern")?,
                hole: field(inner, "hole")?,
                valid: field(inner, "valid")?,
            }),
            "Sequence" => Ok(Contract::Sequence {
                pattern: field(inner, "pattern")?,
                param: field(inner, "param")?,
            }),
            "Unique" => Ok(Contract::Unique {
                pattern: field(inner, "pattern")?,
                param: field(inner, "param")?,
                once_per_config: field(inner, "once_per_config")?,
            }),
            "Range" => Ok(Contract::Range {
                pattern: field(inner, "pattern")?,
                param: field(inner, "param")?,
                min: field(inner, "min")?,
                max: field(inner, "max")?,
            }),
            "Relational" => RelationalContract::from_json(inner).map(Contract::Relational),
            other => Err(JsonError::custom(format!(
                "unknown Contract variant {other:?}"
            ))),
        }
    }
}

impl ToJson for ContractSet {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("contracts".to_string(), self.contracts.to_json()),
            (
                "relational_before_minimization".to_string(),
                self.relational_before_minimization.to_json(),
            ),
        ])
    }
}

impl FromJson for ContractSet {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ContractSet {
            contracts: field(value, "contracts")?,
            relational_before_minimization: field(value, "relational_before_minimization")?,
        })
    }
}

/// Decodes a required object field.
fn field<T: FromJson>(value: &Json, key: &str) -> Result<T, JsonError> {
    let inner = value
        .get(key)
        .ok_or_else(|| JsonError::custom(format!("missing field {key:?}")))?;
    T::from_json(inner).map_err(|e| JsonError::custom(format!("field {key:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_relational() -> Contract {
        Contract::Relational(RelationalContract {
            antecedent: PatternRef {
                pattern: "/interface Port-Channel[a:num]".to_string(),
                param: 0,
                transform: Transform::Hex,
            },
            consequent: PatternRef {
                pattern: "/route-target import [a:mac]".to_string(),
                param: 0,
                transform: Transform::Segment(6),
            },
            relation: RelationKind::Equals,
        })
    }

    #[test]
    fn categories() {
        assert_eq!(
            Contract::Present {
                pattern: "x".into()
            }
            .category(),
            "present"
        );
        assert_eq!(example_relational().category(), "equality");
        let affix = Contract::Relational(RelationalContract {
            antecedent: PatternRef {
                pattern: "a".into(),
                param: 0,
                transform: Transform::Id,
            },
            consequent: PatternRef {
                pattern: "b".into(),
                param: 0,
                transform: Transform::Id,
            },
            relation: RelationKind::EndsWith,
        });
        assert_eq!(affix.category(), "affix");
    }

    #[test]
    fn describe_figure_1_contract_1() {
        // Figure 1 contract 1:
        //   forall l1 ~ interface Port-Channel[a:num]
        //   exists l2 ~ route-target import [b:mac]
        //   equals(hex(l1.a), segment(l2.b, 6))
        let text = example_relational().describe();
        assert!(text.contains("forall l1 ~ /interface Port-Channel[a:num]"));
        assert!(text.contains("exists l2 ~ /route-target import [a:mac]"));
        assert!(text.contains("equals(hex(l1.a), segment(l2.a, 6))"));
    }

    #[test]
    fn describe_present_and_ordering() {
        assert_eq!(
            Contract::Present {
                pattern: "/router bgp [a:num]".into()
            }
            .describe(),
            "exists l ~ /router bgp [a:num]"
        );
        let ordering = Contract::Ordering {
            first: "/evpn".into(),
            second: "/route-target".into(),
        };
        assert!(ordering.describe().contains("index(l1) + 1"));
    }

    #[test]
    fn relation_kind_properties() {
        assert!(RelationKind::Equals.is_transitive());
        assert!(RelationKind::StartsWith.is_transitive());
        assert!(RelationKind::EndsWith.is_transitive());
        assert!(!RelationKind::Contains.is_transitive());
        assert_eq!(RelationKind::all().len(), 4);
    }

    #[test]
    fn json_roundtrip() {
        let set = ContractSet {
            contracts: vec![
                Contract::Present {
                    pattern: "/x".into(),
                },
                Contract::Type {
                    pattern: "/ip address [?]".into(),
                    hole: 0,
                    valid: vec![ValueType::Ip4, ValueType::Ip6],
                },
                Contract::Unique {
                    pattern: "/hostname DEV[a:num]".into(),
                    param: 0,
                    once_per_config: true,
                },
                Contract::Sequence {
                    pattern: "/seq [a:num] permit [b:pfx4]".into(),
                    param: 0,
                },
                example_relational(),
            ],
            relational_before_minimization: 12,
        };
        let json = set.to_json();
        let back = ContractSet::from_json(&json).unwrap();
        assert_eq!(back.contracts, set.contracts);
        assert_eq!(back.relational_before_minimization, 12);
    }

    #[test]
    fn count_by_category() {
        let set = ContractSet {
            contracts: vec![
                Contract::Present {
                    pattern: "/a".into(),
                },
                Contract::Present {
                    pattern: "/b".into(),
                },
                example_relational(),
            ],
            relational_before_minimization: 1,
        };
        let counts = set.count_by_category();
        assert_eq!(counts["present"], 2);
        assert_eq!(counts["equality"], 1);
    }
}
