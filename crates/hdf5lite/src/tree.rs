//! The group/dataset tree and path navigation.

use crate::dataset::{Attr, Dataset};
use crate::error::H5Error;
use std::collections::BTreeMap;

/// A node in the tree: either a subgroup or a dataset leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Subgroup.
    Group(Group),
    /// Dataset leaf.
    Dataset(Dataset),
}

/// A group: named children plus attributes. `BTreeMap` keeps child order
/// deterministic, which makes serialization byte-stable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Group {
    /// Child nodes by name.
    pub children: BTreeMap<String, Node>,
    /// Attributes attached to this group.
    pub attrs: BTreeMap<String, Attr>,
}

/// Split a path into validated components.
fn components(path: &str) -> Result<Vec<&str>, H5Error> {
    let trimmed = path.trim_matches('/');
    if trimmed.is_empty() {
        return Ok(Vec::new()); // the root itself
    }
    let parts: Vec<&str> = trimmed.split('/').collect();
    if parts.iter().any(|p| p.is_empty()) {
        return Err(H5Error::BadPath(path.to_owned()));
    }
    Ok(parts)
}

impl Group {
    /// Navigate to the node at `path` ("" or "/" is the root group, which
    /// is not addressable as a `Node`; use group methods directly).
    pub fn node(&self, path: &str) -> Result<&Node, H5Error> {
        let parts = components(path)?;
        if parts.is_empty() {
            return Err(H5Error::BadPath("root is not a node".into()));
        }
        let mut group = self;
        for (i, part) in parts.iter().enumerate() {
            let child = group
                .children
                .get(*part)
                .ok_or_else(|| H5Error::NotFound(path.to_owned()))?;
            if i == parts.len() - 1 {
                return Ok(child);
            }
            match child {
                Node::Group(g) => group = g,
                Node::Dataset(_) => return Err(H5Error::WrongNodeKind(path.to_owned())),
            }
        }
        unreachable!()
    }

    fn node_mut(&mut self, path: &str) -> Result<&mut Node, H5Error> {
        let parts = components(path)?;
        if parts.is_empty() {
            return Err(H5Error::BadPath("root is not a node".into()));
        }
        let mut group = self;
        for (i, part) in parts.iter().enumerate() {
            let child = group
                .children
                .get_mut(*part)
                .ok_or_else(|| H5Error::NotFound(path.to_owned()))?;
            if i == parts.len() - 1 {
                return Ok(child);
            }
            match child {
                Node::Group(g) => group = g,
                Node::Dataset(_) => return Err(H5Error::WrongNodeKind(path.to_owned())),
            }
        }
        unreachable!()
    }

    /// Navigate to (or create) the group at `path`.
    fn group_mut_creating(&mut self, parts: &[&str], full: &str) -> Result<&mut Group, H5Error> {
        let mut group = self;
        for part in parts {
            let child = group
                .children
                .entry((*part).to_owned())
                .or_insert_with(|| Node::Group(Group::default()));
            match child {
                Node::Group(g) => group = g,
                Node::Dataset(_) => return Err(H5Error::WrongNodeKind(full.to_owned())),
            }
        }
        Ok(group)
    }

    /// Create a group (and intermediates) at `path`. Idempotent.
    pub fn create_group(&mut self, path: &str) -> Result<(), H5Error> {
        let parts = components(path)?;
        self.group_mut_creating(&parts, path).map(|_| ())
    }

    /// Write (or overwrite) a dataset at `path`, creating parent groups.
    pub fn write_dataset(&mut self, path: &str, ds: Dataset) -> Result<(), H5Error> {
        let parts = components(path)?;
        let (&name, parents) = parts
            .split_last()
            .ok_or_else(|| H5Error::BadPath(path.to_owned()))?;
        let group = self.group_mut_creating(parents, path)?;
        if let Some(Node::Group(_)) = group.children.get(name) {
            return Err(H5Error::WrongNodeKind(path.to_owned()));
        }
        group.children.insert(name.to_owned(), Node::Dataset(ds));
        Ok(())
    }

    /// Fetch a dataset at `path`.
    pub fn dataset(&self, path: &str) -> Result<&Dataset, H5Error> {
        match self.node(path)? {
            Node::Dataset(d) => Ok(d),
            Node::Group(_) => Err(H5Error::WrongNodeKind(path.to_owned())),
        }
    }

    /// Set an attribute on the node at `path` ("" addresses the root group).
    pub fn set_attr(&mut self, path: &str, name: &str, attr: Attr) -> Result<(), H5Error> {
        if components(path)?.is_empty() {
            self.attrs.insert(name.to_owned(), attr);
            return Ok(());
        }
        match self.node_mut(path)? {
            Node::Group(g) => g.attrs.insert(name.to_owned(), attr),
            Node::Dataset(d) => d.attrs.insert(name.to_owned(), attr),
        };
        Ok(())
    }

    /// Read an attribute from the node at `path`.
    pub fn attr(&self, path: &str, name: &str) -> Result<&Attr, H5Error> {
        let attrs = if components(path)?.is_empty() {
            &self.attrs
        } else {
            match self.node(path)? {
                Node::Group(g) => &g.attrs,
                Node::Dataset(d) => &d.attrs,
            }
        };
        attrs.get(name).ok_or_else(|| H5Error::AttrNotFound(name.to_owned()))
    }

    /// Sorted child names of the group at `path`.
    pub fn list(&self, path: &str) -> Result<Vec<String>, H5Error> {
        let group = if components(path)?.is_empty() {
            self
        } else {
            match self.node(path)? {
                Node::Group(g) => g,
                Node::Dataset(_) => return Err(H5Error::WrongNodeKind(path.to_owned())),
            }
        };
        Ok(group.children.keys().cloned().collect())
    }

    /// Total raw dataset bytes in this subtree.
    pub fn payload_bytes(&self) -> usize {
        self.children
            .values()
            .map(|n| match n {
                Node::Group(g) => g.payload_bytes(),
                Node::Dataset(d) => d.byte_len(),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_nested_groups_idempotent() {
        let mut g = Group::default();
        g.create_group("a/b/c").unwrap();
        g.create_group("a/b").unwrap(); // no-op
        g.create_group("a/b/c").unwrap(); // no-op
        assert_eq!(g.list("").unwrap(), vec!["a"]);
        assert_eq!(g.list("a/b").unwrap(), vec!["c"]);
    }

    #[test]
    fn dataset_blocks_group_path() {
        let mut g = Group::default();
        g.write_dataset("a/data", Dataset::from_u8(&[1], &[1])).unwrap();
        assert_eq!(
            g.create_group("a/data/sub").unwrap_err(),
            H5Error::WrongNodeKind("a/data/sub".into())
        );
        // And a group cannot be overwritten by a dataset.
        g.create_group("a/grp").unwrap();
        assert!(matches!(
            g.write_dataset("a/grp", Dataset::from_u8(&[], &[0])),
            Err(H5Error::WrongNodeKind(_))
        ));
    }

    #[test]
    fn overwrite_dataset_allowed() {
        let mut g = Group::default();
        g.write_dataset("x", Dataset::from_u8(&[1], &[1])).unwrap();
        g.write_dataset("x", Dataset::from_u8(&[2, 3], &[2])).unwrap();
        assert_eq!(g.dataset("x").unwrap().as_u8().unwrap(), vec![2, 3]);
    }

    #[test]
    fn bad_paths_rejected() {
        let mut g = Group::default();
        assert!(matches!(g.create_group("a//b"), Err(H5Error::BadPath(_))));
        assert!(matches!(
            g.write_dataset("", Dataset::from_u8(&[], &[0])),
            Err(H5Error::BadPath(_))
        ));
    }

    #[test]
    fn missing_path_not_found() {
        let g = Group::default();
        assert_eq!(g.dataset("nope").unwrap_err(), H5Error::NotFound("nope".into()));
    }

    #[test]
    fn attrs_on_root_group_and_dataset() {
        let mut g = Group::default();
        g.set_attr("", "version", Attr::Int(1)).unwrap();
        g.create_group("grp").unwrap();
        g.set_attr("grp", "label", Attr::Str("x".into())).unwrap();
        g.write_dataset("grp/d", Dataset::from_u8(&[1], &[1])).unwrap();
        g.set_attr("grp/d", "scale", Attr::Float(2.0)).unwrap();

        assert_eq!(g.attr("", "version").unwrap().as_int(), Some(1));
        assert_eq!(g.attr("grp", "label").unwrap().as_str(), Some("x"));
        assert_eq!(g.attr("grp/d", "scale").unwrap().as_float(), Some(2.0));
        assert_eq!(g.attr("grp", "missing").unwrap_err(), H5Error::AttrNotFound("missing".into()));
    }

    #[test]
    fn payload_bytes_sums_subtree() {
        let mut g = Group::default();
        g.write_dataset("a/x", Dataset::from_f64(&[1.0, 2.0], &[2])).unwrap();
        g.write_dataset("y", Dataset::from_u8(&[1, 2, 3], &[3])).unwrap();
        assert_eq!(g.payload_bytes(), 16 + 3);
    }

    #[test]
    fn leading_and_trailing_slashes_tolerated() {
        let mut g = Group::default();
        g.write_dataset("/a/b/", Dataset::from_u8(&[9], &[1])).unwrap();
        assert_eq!(g.dataset("a/b").unwrap().as_u8().unwrap(), vec![9]);
    }
}
