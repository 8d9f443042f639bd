//! Allocation nodes: the per-class universe the coloring graphs range over.
//!
//! Allocation runs independently per register class (integer and float
//! register files are disjoint). Within a class, the node universe is:
//!
//! * one *precolored* node per physical register that appears pinned in the
//!   lowered code (argument/return registers), numbered first;
//! * one node per ordinary virtual register of the class.
//!
//! Pinned virtual registers of the same physical register share a single
//! precolored node, exactly as Chaitin's "physical register nodes".

use pdgc_arena::{RowTable, VecPool};
use pdgc_ir::{Function, RegClass, VReg};
use pdgc_target::{PhysReg, TargetDesc};
use std::fmt;

/// Resettable scratch pools for [`NodeMap::build_in`].
#[derive(Debug, Default)]
pub struct NodeScratch {
    vreg_node: VecPool<Option<NodeId>>,
    members: RowTable<VReg>,
    referenced: VecPool<bool>,
}

impl NodeScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A dense node index within one class's allocation universe.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index overflow"))
    }

    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The mapping between one class's virtual registers and allocation nodes.
#[derive(Clone, Debug)]
pub struct NodeMap {
    class: RegClass,
    num_phys: usize,
    /// vreg index -> node (None when the vreg is of another class or dead).
    vreg_node: Vec<Option<NodeId>>,
    /// Row `n`: the vregs node `n` represents, ascending (several for
    /// precolored nodes).
    members: RowTable<VReg>,
}

impl NodeMap {
    /// Builds the node universe for `class`.
    ///
    /// `pinned` gives, per vreg, the physical register it is pinned to (from
    /// call lowering), if any. Every physical register of the class gets a
    /// precolored node (used or not) so node numbering is stable; vregs of
    /// the class that are referenced by at least one instruction get a
    /// live-range node.
    pub fn build(
        func: &Function,
        target: &TargetDesc,
        class: RegClass,
        pinned: &[Option<PhysReg>],
    ) -> Self {
        Self::build_in(func, target, class, pinned, &mut NodeScratch::default())
    }

    /// Like [`NodeMap::build`], drawing all storage from pooled scratch.
    /// Return the map with [`NodeMap::recycle`] when done.
    pub fn build_in(
        func: &Function,
        target: &TargetDesc,
        class: RegClass,
        pinned: &[Option<PhysReg>],
        scratch: &mut NodeScratch,
    ) -> Self {
        let num_phys = target.num_regs(class);
        let mut vreg_node = scratch.vreg_node.take_filled(func.num_vregs(), None);
        let mut members = std::mem::take(&mut scratch.members);

        // Mark referenced vregs (parameters count as referenced).
        let mut referenced = scratch.referenced.take_filled(func.num_vregs(), false);
        for &p in &func.param_vregs {
            referenced[p.index()] = true;
        }
        for b in func.block_ids() {
            for inst in &func.block(b).insts {
                if let Some(d) = inst.def() {
                    referenced[d.index()] = true;
                }
                inst.visit_uses(|u| referenced[u.index()] = true);
            }
        }

        let mut num_nodes = num_phys;
        for i in 0..func.num_vregs() {
            let v = VReg::new(i);
            if func.class_of(v) != class || !referenced[i] {
                continue;
            }
            vreg_node[i] = Some(match pinned[i] {
                Some(reg) => {
                    debug_assert_eq!(reg.class(), class);
                    NodeId::new(reg.index())
                }
                None => {
                    num_nodes += 1;
                    NodeId::new(num_nodes - 1)
                }
            });
        }
        // In vreg order, so every node's members come out ascending.
        members.fill_counted(num_nodes, || {
            vreg_node
                .iter()
                .enumerate()
                .filter_map(|(i, n)| n.map(|n| (n.index(), VReg::new(i))))
        });
        scratch.referenced.put(referenced);

        NodeMap {
            class,
            num_phys,
            vreg_node,
            members,
        }
    }

    /// Returns this map's storage to `scratch` for reuse.
    pub fn recycle(self, scratch: &mut NodeScratch) {
        scratch.vreg_node.put(self.vreg_node);
        scratch.members = self.members;
    }

    /// The register class of this universe.
    pub fn class(&self) -> RegClass {
        self.class
    }

    /// Total number of nodes (precolored + live ranges).
    pub fn num_nodes(&self) -> usize {
        self.members.num_rows()
    }

    /// Number of precolored nodes (= registers in the class).
    pub fn num_phys(&self) -> usize {
        self.num_phys
    }

    /// Whether `n` is a precolored (physical-register) node.
    pub fn is_precolored(&self, n: NodeId) -> bool {
        n.index() < self.num_phys
    }

    /// The physical register of a precolored node.
    ///
    /// # Panics
    ///
    /// Panics if `n` is a live-range node.
    pub fn phys_reg(&self, n: NodeId) -> PhysReg {
        assert!(self.is_precolored(n), "{n} is not precolored");
        PhysReg::new(self.class, n.index() as u8)
    }

    /// The precolored node for a physical register of this class.
    pub fn node_of_reg(&self, reg: PhysReg) -> NodeId {
        assert_eq!(reg.class(), self.class);
        NodeId::new(reg.index())
    }

    /// The node of a vreg, if it belongs to this class and is referenced.
    pub fn node_of(&self, v: VReg) -> Option<NodeId> {
        self.vreg_node[v.index()]
    }

    /// The vregs represented by a node (one for live-range nodes; all
    /// same-register pinned vregs for precolored nodes).
    pub fn members(&self, n: NodeId) -> &[VReg] {
        self.members.row(n.index())
    }

    /// Iterates over the live-range (non-precolored) nodes.
    pub fn live_range_nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        (self.num_phys..self.num_nodes()).map(NodeId::new)
    }

    /// Iterates over all nodes.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::new)
    }

    /// The assignment every coloring starts from, in node order: each
    /// precolored node's register, `None` for each live-range node.
    pub(crate) fn precolored(&self) -> impl Iterator<Item = Option<PhysReg>> + '_ {
        self.all_nodes()
            .map(|n| self.is_precolored(n).then(|| self.phys_reg(n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{BinOp, FunctionBuilder};
    use pdgc_target::PressureModel;

    #[test]
    fn universe_layout() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.bin(BinOp::Add, p, p);
        b.ret(Some(x));
        let mut f = b.finish();
        let dead = f.new_vreg(RegClass::Int); // never referenced
        let target = TargetDesc::ia64_like(PressureModel::High);
        let pinned = vec![None; f.num_vregs()];
        let nm = NodeMap::build(&f, &target, RegClass::Int, &pinned);

        assert_eq!(nm.num_phys(), 16);
        assert_eq!(nm.num_nodes(), 18); // 16 precolored + p + x
        assert!(nm.node_of(dead).is_none());
        let np = nm.node_of(p).unwrap();
        assert!(!nm.is_precolored(np));
        assert_eq!(nm.members(np), &[p]);
        assert!(nm.is_precolored(nm.node_of_reg(PhysReg::int(3))));
        assert_eq!(nm.phys_reg(NodeId::new(3)), PhysReg::int(3));
        assert_eq!(nm.live_range_nodes().count(), 2);
    }

    #[test]
    fn pinned_vregs_share_precolored_node() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        let a = b.new_vreg(RegClass::Int);
        let c = b.new_vreg(RegClass::Int);
        let z = b.iconst(0);
        b.copy_to(a, z);
        b.copy_to(c, z);
        b.ret(None);
        let f = b.finish();
        let target = TargetDesc::ia64_like(PressureModel::High);
        let mut pinned = vec![None; f.num_vregs()];
        pinned[a.index()] = Some(PhysReg::int(0));
        pinned[c.index()] = Some(PhysReg::int(0));
        let nm = NodeMap::build(&f, &target, RegClass::Int, &pinned);
        assert_eq!(nm.node_of(a), nm.node_of(c));
        assert_eq!(nm.node_of(a), Some(NodeId::new(0)));
        assert_eq!(nm.members(NodeId::new(0)), &[a, c]);
    }

    #[test]
    fn classes_are_disjoint() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Float], None);
        let q = b.param(0);
        let s = b.bin(BinOp::FAdd, q, q);
        let base = b.iconst(1024);
        b.store(s, base, 0);
        b.ret(None);
        let f = b.finish();
        let target = TargetDesc::ia64_like(PressureModel::High);
        let pinned = vec![None; f.num_vregs()];
        let ni = NodeMap::build(&f, &target, RegClass::Int, &pinned);
        let nf = NodeMap::build(&f, &target, RegClass::Float, &pinned);
        assert!(ni.node_of(q).is_none());
        assert!(nf.node_of(q).is_some());
        assert!(nf.node_of(base).is_none());
        assert!(ni.node_of(base).is_some());
        assert_eq!(nf.live_range_nodes().count(), 2);
    }
}
