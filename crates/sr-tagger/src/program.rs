//! The view-tree program: everything the per-tuple loop looks up, resolved
//! once per tagging run.
//!
//! Every partitioned relation is sorted by *its own* columns in the §3.2
//! interleaved order — `L1`, the level-1 node's keys, `L2`, … — which is the
//! global order restricted to the stream's columns. A column a stream lacks
//! reads as NULL, and a constant NULL position does not disturb a stream's
//! own order, so streams can be merged by walking that order over each
//! stream's own columns; no tuple is ever widened to a global layout.
//!
//! [`Program`] holds what depends on the tree alone (SFI step → node),
//! [`StreamColumns`] what depends on one stream's schema (where its `L{p}`,
//! key and text columns sit).

use sr_data::Schema;
use sr_sqlgen::ColumnSpec;
use sr_viewtree::{NodeContent, NodeId, ReducedComponent, TextSource, VarId, ViewTree};

use crate::tagger::TagError;

/// Tree-level lookups.
pub(crate) struct Program<'t> {
    pub tree: &'t ViewTree,
    pub max_level: usize,
    /// `(ordinal, node)` for the nodes with a one-step SFI, by ordinal.
    roots: Vec<(u32, NodeId)>,
    /// Per node: `(ordinal, child)` for the nodes one SFI step below it.
    children: Vec<Vec<(u32, NodeId)>>,
    /// Per node: the last step of its SFI.
    ordinals: Vec<u32>,
}

impl<'t> Program<'t> {
    /// Resolve the SFI paths of `tree` into per-node step tables. A node
    /// with an empty SFI cannot be ordered against its siblings.
    pub fn compile(tree: &'t ViewTree) -> Result<Program<'t>, TagError> {
        let mut by_sfi = std::collections::HashMap::new();
        for n in &tree.nodes {
            by_sfi.entry(n.sfi.as_slice()).or_insert(n.id);
        }
        let mut roots = Vec::new();
        let mut children = vec![Vec::new(); tree.nodes.len()];
        let mut ordinals = Vec::with_capacity(tree.nodes.len());
        for n in &tree.nodes {
            let Some((&ordinal, above)) = n.sfi.split_last() else {
                return Err(TagError::MalformedTree(format!(
                    "node <{}> has an empty SFI path",
                    n.tag
                )));
            };
            ordinals.push(ordinal);
            if above.is_empty() {
                roots.push((ordinal, n.id));
            } else if let Some(&parent) = by_sfi.get(above) {
                children[parent].push((ordinal, n.id));
            }
        }
        // Stable sort, first kept: two nodes claiming one SFI resolve to the
        // earlier, as a scan of the node list would.
        for steps in children.iter_mut().chain([&mut roots]) {
            steps.sort_by_key(|&(ordinal, _)| ordinal);
            steps.dedup_by_key(|&mut (ordinal, _)| ordinal);
        }
        Ok(Program {
            tree,
            max_level: tree.max_level(),
            roots,
            children,
            ordinals,
        })
    }

    /// The node one SFI step `label` below `parent` (`None`: the top).
    pub fn step(&self, parent: Option<NodeId>, label: i64) -> Option<NodeId> {
        let steps = match parent {
            None => &self.roots,
            Some(p) => &self.children[p],
        };
        let ordinal = u32::try_from(label).ok()?;
        let at = steps.binary_search_by_key(&ordinal, |&(o, _)| o).ok()?;
        Some(steps[at].1)
    }

    /// The last step of `node`'s SFI: its `L` label at its own level.
    pub fn ordinal(&self, node: NodeId) -> u32 {
        self.ordinals[node]
    }
}

/// The column index of a column the stream does not have. It lies past
/// every row, so reading it yields NULL with no special case.
pub(crate) const ABSENT: usize = usize::MAX;

/// Where one stream's schema puts the columns the tagger reads; [`ABSENT`]
/// for a column the stream lacks.
pub(crate) struct StreamColumns {
    /// `level[p-1]` = column of `L{p}`.
    pub level: Vec<usize>,
    /// `var[v]` = column of variable `v`.
    pub var: Vec<usize>,
    /// Per node, the columns of its `key_args`, flattened; node `n` owns
    /// `keys[key_start[n]..key_start[n + 1]]`.
    keys: Vec<usize>,
    key_start: Vec<usize>,
    /// Per node, the columns an element it opens must retain to emit its
    /// text and its merged class members later; flattened like `keys`.
    payload: Vec<usize>,
    payload_start: Vec<usize>,
    /// Member node → class index within this stream's component.
    class_of: Vec<Option<usize>>,
}

impl StreamColumns {
    /// Map `schema`'s columns, by name, onto the tree.
    pub fn compile(
        tree: &ViewTree,
        schema: &Schema,
        reduced: &ReducedComponent,
    ) -> Result<StreamColumns, TagError> {
        let mut class_of = vec![None; tree.nodes.len()];
        for (ci, class) in reduced.nodes.iter().enumerate() {
            for &m in &class.members {
                // A reduced component is caller-supplied; a member id past
                // the tree is a malformed input, not an internal invariant.
                let slot = class_of.get_mut(m).ok_or_else(|| {
                    TagError::MalformedTree(format!(
                        "reduced class {ci} references view node {m}, but the tree has {} node(s)",
                        tree.nodes.len()
                    ))
                })?;
                *slot = Some(ci);
            }
        }
        let column = |c: ColumnSpec| schema.position(&c.name(tree)).unwrap_or(ABSENT);
        let var: Vec<usize> = (0..tree.vars.len())
            .map(|v| column(ColumnSpec::Var(v)))
            .collect();
        let mut cols = StreamColumns {
            level: (1..=tree.max_level())
                .map(|p| column(ColumnSpec::Level(p as u16)))
                .collect(),
            var,
            keys: Vec::new(),
            key_start: vec![0],
            payload: Vec::new(),
            payload_start: vec![0],
            class_of,
        };
        let mut vars = Vec::new();
        for n in &tree.nodes {
            cols.keys.extend(n.key_args.iter().map(|&v| cols.var[v]));
            cols.key_start.push(cols.keys.len());
            vars.clear();
            cols.text_vars(tree, n.id, &mut vars);
            let present = vars.iter().map(|&v| cols.var[v]).filter(|&c| c != ABSENT);
            cols.payload.extend(present);
            cols.payload_start.push(cols.payload.len());
        }
        Ok(cols)
    }

    /// The variables `node`'s content reads: its own text, and that of the
    /// class members below it, which are emitted from the same tuple.
    fn text_vars(&self, tree: &ViewTree, node: NodeId, out: &mut Vec<VarId>) {
        for item in &tree.node(node).content {
            match item {
                NodeContent::Text(TextSource::Var(v)) => out.push(*v),
                NodeContent::Text(TextSource::Lit(_)) => {}
                NodeContent::Child(c) => {
                    if self.same_class(node, *c) {
                        self.text_vars(tree, *c, out);
                    }
                }
            }
        }
    }

    /// The columns of `node`'s key variables, in `key_args` order.
    pub fn keys(&self, node: NodeId) -> &[usize] {
        &self.keys[self.key_start[node]..self.key_start[node + 1]]
    }

    /// The columns an element of `node` opened from this stream retains.
    pub fn payload(&self, node: NodeId) -> &[usize] {
        &self.payload[self.payload_start[node]..self.payload_start[node + 1]]
    }

    /// Whether `a` and `b` were merged into one class of this stream.
    pub fn same_class(&self, a: NodeId, b: NodeId) -> bool {
        self.class_of[a].is_some() && self.class_of[a] == self.class_of[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_data::{DataType, Database, ForeignKey, Table};
    use sr_viewtree::build;

    fn setup() -> ViewTree {
        let mut db = Database::new();
        db.add_table(Table::new(
            "Supplier",
            Schema::of(&[
                ("suppkey", DataType::Int),
                ("name", DataType::Str),
                ("nationkey", DataType::Int),
            ]),
        ));
        db.add_table(Table::new(
            "Nation",
            Schema::of(&[("nationkey", DataType::Int), ("name", DataType::Str)]),
        ));
        db.declare_key("Supplier", &["suppkey"]).unwrap();
        db.declare_key("Nation", &["nationkey"]).unwrap();
        db.declare_foreign_key(ForeignKey::new(
            "Supplier",
            &["nationkey"],
            "Nation",
            &["nationkey"],
        ))
        .unwrap();
        let q = sr_rxl::parse(
            "from Supplier $s construct <supplier><name>$s.name</name>\
             { from Nation $n where $s.nationkey = $n.nationkey \
               construct <nation>$n.name</nation> }</supplier>",
        )
        .unwrap();
        build(&q, &db).unwrap()
    }

    #[test]
    fn sfi_steps_resolve_every_node_and_nothing_else() {
        let tree = setup();
        let prog = Program::compile(&tree).unwrap();
        for n in &tree.nodes {
            let mut at = None;
            for &step in &n.sfi {
                at = Some(
                    prog.step(at, step as i64)
                        .expect("every SFI prefix is a node"),
                );
            }
            assert_eq!(at, Some(n.id));
            assert_eq!(prog.ordinal(n.id), *n.sfi.last().unwrap());
        }
        assert_eq!(prog.step(None, 9), None);
        assert_eq!(prog.step(Some(0), 9), None);
        assert_eq!(prog.step(Some(0), -1), None);
        assert_eq!(prog.step(Some(0), (1 << 32) + 1), None, "no truncation");
    }

    #[test]
    fn missing_columns_read_as_absent() {
        let tree = setup();
        // A stream carrying only L1 and the root's key.
        let schema = Schema::of(&[("L1", DataType::Int), ("v1_1", DataType::Int)]);
        let reduced = ReducedComponent { nodes: Vec::new() };
        let cols = StreamColumns::compile(&tree, &schema, &reduced).unwrap();
        assert_eq!(cols.level[0], 0);
        assert!(cols.level[1..].iter().all(|&c| c == ABSENT));
        assert_eq!(cols.keys(0), &[1]);
        assert_eq!(cols.var.iter().filter(|&&c| c != ABSENT).count(), 1);
        assert!(tree.nodes.iter().all(|n| cols.payload(n.id).is_empty()));
    }
}
