//! Tokens, token identifiers and the Λ-language primitive templates.
//!
//! In the OSM model, structure and data resources of the hardware layer are
//! represented by *tokens*. Operations never touch hardware state directly;
//! they perform *token transactions* with [token managers](crate::TokenManager)
//! using the four primitives of the Λ language: `allocate`, `inquire`,
//! `release` and `discard` (paper §3.3).

use crate::ids::{ManagerId, SlotId};
use std::fmt;

/// An identifier presented to a token manager in a transaction request.
///
/// The manager interprets the identifier and maps it to a token: for a
/// pipeline-stage manager the identifier is ignored (there is one occupancy
/// token); for a register-file manager it selects the register; for a
/// reservation-station manager it may select an entry.
///
/// The value [`TokenIdent::ANY`] asks the manager to pick any token it is
/// willing to grant. The value [`TokenIdent::NONE`] marks a vacuous
/// primitive: a slot-resolved identifier that the current operation does not
/// use (e.g. an instruction without a second source register); such a
/// primitive succeeds trivially without contacting the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenIdent(pub u64);

impl TokenIdent {
    /// "Pick any available token" wildcard.
    pub const ANY: TokenIdent = TokenIdent(u64::MAX - 1);
    /// "This primitive is unused by the current operation" sentinel.
    pub const NONE: TokenIdent = TokenIdent(u64::MAX);

    /// Returns true if this identifier is the vacuous [`NONE`](Self::NONE) sentinel.
    #[inline]
    pub fn is_none(self) -> bool {
        self == Self::NONE
    }

    /// Returns true if this identifier is the [`ANY`](Self::ANY) wildcard.
    #[inline]
    pub fn is_any(self) -> bool {
        self == Self::ANY
    }
}

impl fmt::Display for TokenIdent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "∅")
        } else if self.is_any() {
            write!(f, "*")
        } else {
            write!(f, "#{}", self.0)
        }
    }
}

impl From<u64> for TokenIdent {
    fn from(v: u64) -> Self {
        TokenIdent(v)
    }
}

/// A granted token: proof of ownership of a resource unit.
///
/// The `raw` value is chosen by the granting manager (usually the concrete
/// resource index the identifier was mapped to) and is meaningful only to
/// that manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token {
    /// The manager that granted (and will reclaim) this token.
    pub manager: ManagerId,
    /// Manager-private resource index.
    pub raw: u64,
}

impl Token {
    /// Creates a token; normally only token managers construct tokens.
    pub fn new(manager: ManagerId, raw: u64) -> Self {
        Token { manager, raw }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}·{}", self.manager, self.raw)
    }
}

/// A token held in an OSM's token buffer, remembering the identifier it was
/// requested under so later `release`/`discard` templates can find it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeldToken {
    /// Identifier the token was requested under.
    pub ident: TokenIdent,
    /// The granted token.
    pub token: Token,
}

/// How a primitive template obtains its token identifier at evaluation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdentExpr {
    /// A fixed identifier baked into the state machine specification.
    Const(u64),
    /// The identifier stored in the given dynamic slot of the OSM instance
    /// (operations initialize their slots while decoding; paper §4).
    Slot(SlotId),
    /// For `release`/`discard`: match any token held from the manager.
    AnyHeld,
}

impl IdentExpr {
    /// The constant [`TokenIdent::ANY`] wildcard ("any available token").
    pub const ANY: IdentExpr = IdentExpr::Const(TokenIdent::ANY.0);
}

impl fmt::Display for IdentExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdentExpr::Const(v) => write!(f, "{v}"),
            IdentExpr::Slot(s) => write!(f, "[{s}]"),
            IdentExpr::AnyHeld => write!(f, "held"),
        }
    }
}

/// One primitive transaction of the Λ language, as it appears (in template
/// form) inside an edge condition of a state machine specification.
///
/// An edge condition is the *conjunction* of its primitives: it is satisfied
/// only if all primitives succeed simultaneously, and committing the edge
/// commits all of them atomically (paper §3.3). Disjunction is expressed by
/// parallel edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primitive {
    /// Request exclusive ownership of a token (structure resources).
    Allocate {
        /// Manager to allocate from.
        manager: ManagerId,
        /// Identifier of the requested token.
        ident: IdentExpr,
    },
    /// Ask whether a resource is available without obtaining it
    /// (non-exclusive transactions, e.g. reading a register's state).
    Inquire {
        /// Manager to inquire of.
        manager: ManagerId,
        /// Identifier of the inquired token.
        ident: IdentExpr,
    },
    /// Offer to return a held token; the manager may refuse (this is how
    /// variable latency is modeled, paper §4).
    Release {
        /// Manager the held token belongs to.
        manager: ManagerId,
        /// Which held token to release.
        ident: IdentExpr,
    },
    /// Unconditionally drop held tokens; requires no permission and always
    /// succeeds (used on reset edges). `manager == None` discards *every*
    /// token in the buffer regardless of manager.
    Discard {
        /// Restrict to tokens of this manager, or `None` for all.
        manager: Option<ManagerId>,
        /// Which held token(s) to discard ([`IdentExpr::AnyHeld`] = all of
        /// the selected manager's tokens).
        ident: IdentExpr,
    },
}

impl Primitive {
    /// The manager this primitive addresses, if a specific one.
    pub fn manager(&self) -> Option<ManagerId> {
        match *self {
            Primitive::Allocate { manager, .. }
            | Primitive::Inquire { manager, .. }
            | Primitive::Release { manager, .. } => Some(manager),
            Primitive::Discard { manager, .. } => manager,
        }
    }

    /// True if this primitive can never block an edge (discards always succeed).
    pub fn always_succeeds(&self) -> bool {
        matches!(self, Primitive::Discard { .. })
    }
}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Primitive::Allocate { manager, ident } => write!(f, "alloc({manager},{ident})"),
            Primitive::Inquire { manager, ident } => write!(f, "inq({manager},{ident})"),
            Primitive::Release { manager, ident } => write!(f, "rel({manager},{ident})"),
            Primitive::Discard {
                manager: Some(m),
                ident,
            } => write!(f, "disc({m},{ident})"),
            Primitive::Discard {
                manager: None,
                ident,
            } => write!(f, "disc(*,{ident})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_sentinels_are_distinct() {
        assert_ne!(TokenIdent::ANY, TokenIdent::NONE);
        assert!(TokenIdent::NONE.is_none());
        assert!(TokenIdent::ANY.is_any());
        assert!(!TokenIdent(0).is_none());
        assert!(!TokenIdent(0).is_any());
    }

    #[test]
    fn display_formats() {
        assert_eq!(TokenIdent(4).to_string(), "#4");
        assert_eq!(TokenIdent::NONE.to_string(), "∅");
        assert_eq!(TokenIdent::ANY.to_string(), "*");
        assert_eq!(Token::new(ManagerId(1), 2).to_string(), "mgr1·2");
    }

    #[test]
    fn primitive_manager_extraction() {
        let p = Primitive::Allocate {
            manager: ManagerId(3),
            ident: IdentExpr::Const(0),
        };
        assert_eq!(p.manager(), Some(ManagerId(3)));
        let d = Primitive::Discard {
            manager: None,
            ident: IdentExpr::AnyHeld,
        };
        assert_eq!(d.manager(), None);
        assert!(d.always_succeeds());
        assert!(!p.always_succeeds());
    }

    #[test]
    fn primitive_display() {
        let p = Primitive::Release {
            manager: ManagerId(0),
            ident: IdentExpr::Slot(SlotId(1)),
        };
        assert_eq!(p.to_string(), "rel(mgr0,[slot1])");
        let d = Primitive::Discard {
            manager: None,
            ident: IdentExpr::AnyHeld,
        };
        assert_eq!(d.to_string(), "disc(*,held)");
    }
}
