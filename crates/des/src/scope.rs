//! Hierarchical design scopes.
//!
//! Circuits are built inside nested named scopes (like module instances
//! in an HDL). Scopes drive two things: hierarchical signal names in
//! waveform dumps, and per-block energy attribution — the paper's
//! Fig 14 power breakdown is a per-scope energy rollup.

use std::fmt;

/// Identifier of a scope in the design hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScopeId(pub(crate) u32);

impl ScopeId {
    /// The root scope that every simulator starts with.
    pub const ROOT: ScopeId = ScopeId(0);
}

/// A dotted hierarchical path such as `link.ser.dc0`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScopePath(pub(crate) String);

impl ScopePath {
    /// The path as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// True if the dotted scope path `path` is `scope` or nested beneath
/// it, component-wise (`link.serde` is not within `link.ser`). The
/// empty scope is the root, so every path is within it.
///
/// ```
/// use sal_des::within_scope;
/// assert!(within_scope("link.ser.dc0", "link.ser"));
/// assert!(!within_scope("link.serde", "link.ser"));
/// assert!(within_scope("blk", ""));
/// ```
pub fn within_scope(path: &str, scope: &str) -> bool {
    scope.is_empty()
        || path.strip_prefix(scope).is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

impl fmt::Display for ScopePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Every scope's dotted path, indexed by [`ScopeId`]; the root's is
/// empty.
#[derive(Debug)]
pub(crate) struct ScopeTree {
    paths: Vec<String>,
}

impl ScopeTree {
    pub fn new() -> Self {
        ScopeTree { paths: vec![String::new()] }
    }

    pub fn child(&mut self, parent: ScopeId, name: &str) -> ScopeId {
        let id = ScopeId(self.paths.len() as u32);
        let path = if self.paths[parent.0 as usize].is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.paths[parent.0 as usize], name)
        };
        self.paths.push(path);
        id
    }

    pub fn path(&self, id: ScopeId) -> ScopePath {
        ScopePath(self.paths[id.0 as usize].clone())
    }

    pub fn path_str(&self, id: ScopeId) -> &str {
        &self.paths[id.0 as usize]
    }

    /// All scope ids whose path is within `prefix` ([`within_scope`]).
    pub fn subtree(&self, prefix: &str) -> Vec<ScopeId> {
        (0..self.paths.len())
            .filter(|&i| within_scope(&self.paths[i], prefix))
            .map(|i| ScopeId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_nest() {
        let mut t = ScopeTree::new();
        let a = t.child(ScopeId::ROOT, "link");
        let b = t.child(a, "ser");
        assert_eq!(t.path(ScopeId::ROOT).as_str(), "");
        assert_eq!(t.path(a).as_str(), "link");
        assert_eq!(t.path(b).as_str(), "link.ser");
    }

    #[test]
    fn within_scope_is_component_wise() {
        assert!(!within_scope("link.serde", "link.ser"));
        assert!(within_scope("link.serde", "link"));
        assert!(within_scope("link.serde", "link.serde"));
        assert!(!within_scope("link", "link.serde"));
        assert!(within_scope("link.serde", ""));
        assert!(within_scope("", ""));
    }

    #[test]
    fn subtree_collects_descendants() {
        let mut t = ScopeTree::new();
        let a = t.child(ScopeId::ROOT, "link");
        let b = t.child(a, "ser");
        let _c = t.child(ScopeId::ROOT, "other");
        let sub = t.subtree("link");
        assert!(sub.contains(&a) && sub.contains(&b));
        assert_eq!(sub.len(), 2);
        // The empty prefix is the root: the whole tree.
        assert_eq!(t.subtree("").len(), 4);
    }
}
