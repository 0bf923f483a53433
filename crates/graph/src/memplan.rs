//! Static memory planning (§3): pre-allocates storage for intermediate
//! tensors, sharing buffers between tensors whose live ranges do not
//! overlap (liveness-based greedy reuse).

use crate::fusion::FusedGraph;
use crate::ir::Graph;

/// The storage plan: a storage slot per group output.
#[derive(Clone, Debug)]
pub struct MemoryPlan {
    /// Storage slot id for each node (usize::MAX for params/inputs and
    /// nodes internal to a group, which never materialize).
    pub storage_of: Vec<usize>,
    /// Size in bytes of each storage slot. Byte-sized slots are safe to
    /// reuse across groups with different dtypes: a slot fits a tensor
    /// iff it holds at least `numel * dtype.bytes()` bytes.
    pub slot_sizes: Vec<usize>,
    /// Required base alignment of each slot in bytes: the maximum lane
    /// width over every tensor the slot ever holds. A slot born for an
    /// i8 tensor that is later reassigned to an f32 tensor must be
    /// 4-byte aligned, not 1-byte aligned — an allocator that lays slots
    /// out contiguously by size alone would hand the f32 occupant an
    /// unaligned base address.
    pub slot_aligns: Vec<usize>,
}

impl MemoryPlan {
    /// Total planned bytes.
    pub fn total_bytes(&self) -> usize {
        self.slot_sizes.iter().sum::<usize>()
    }

    /// Byte offset of each slot when the slots are packed into one arena
    /// in slot order, honoring each slot's required base alignment (the
    /// arena base itself is assumed maximally aligned).
    pub fn slot_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.slot_sizes.len());
        let mut cursor = 0usize;
        for (size, align) in self.slot_sizes.iter().zip(&self.slot_aligns) {
            let align = (*align).max(1);
            cursor = cursor.div_ceil(align) * align;
            offsets.push(cursor);
            cursor += size;
        }
        offsets
    }

    /// Total arena bytes when slots are packed with [`slot_offsets`]
    /// (>= [`total_bytes`] by at most the alignment padding).
    ///
    /// [`slot_offsets`]: MemoryPlan::slot_offsets
    /// [`total_bytes`]: MemoryPlan::total_bytes
    pub fn arena_bytes(&self) -> usize {
        match self.slot_offsets().last() {
            Some(&last) => last + self.slot_sizes.last().copied().unwrap_or(0),
            None => 0,
        }
    }

    /// Bytes without any reuse (one buffer per materialized tensor).
    pub fn naive_bytes(&self, g: &Graph, fused: &FusedGraph) -> usize {
        fused
            .groups
            .iter()
            .map(|grp| {
                let node = g.node(grp.output);
                node.shape.iter().product::<i64>() as usize * node.dtype.bytes()
            })
            .sum()
    }
}

/// Plans storage for all group outputs.
pub fn plan_memory(g: &Graph, fused: &FusedGraph) -> MemoryPlan {
    let consumers = g.consumers();
    // Live range of each group output: from its group index to the last
    // group that consumes it (graph outputs live forever).
    let n_groups = fused.groups.len();
    let mut last_use: Vec<usize> = (0..n_groups).collect();
    for (gi, grp) in fused.groups.iter().enumerate() {
        let out = grp.output;
        let mut last = gi;
        for &c in &consumers[out.0] {
            let cg = fused.group_of[c.0];
            if cg != usize::MAX {
                last = last.max(cg);
            }
        }
        if g.outputs.contains(&out) {
            last = n_groups;
        }
        last_use[gi] = last;
    }

    let mut storage_of = vec![usize::MAX; g.nodes.len()];
    let mut slot_sizes: Vec<usize> = Vec::new();
    let mut slot_aligns: Vec<usize> = Vec::new();
    let mut slot_free_at: Vec<usize> = Vec::new(); // group index when slot frees
    for (gi, grp) in fused.groups.iter().enumerate() {
        let out = g.node(grp.output);
        let size = out.shape.iter().product::<i64>() as usize * out.dtype.bytes();
        let align = out.dtype.lane_bytes().max(1);
        // Greedy: reuse the smallest free slot that fits.
        let mut best: Option<usize> = None;
        for (si, &free_at) in slot_free_at.iter().enumerate() {
            if free_at <= gi
                && slot_sizes[si] >= size
                && best.map(|b| slot_sizes[si] < slot_sizes[b]).unwrap_or(true)
            {
                best = Some(si);
            }
        }
        let slot = match best {
            Some(si) => {
                // Mixed-dtype reuse: a slot adopted by a wider dtype must
                // carry the widest occupant's alignment so its base stays
                // legal for every tensor it ever holds.
                slot_aligns[si] = slot_aligns[si].max(align);
                si
            }
            None => {
                slot_sizes.push(size);
                slot_aligns.push(align);
                slot_free_at.push(0);
                slot_sizes.len() - 1
            }
        };
        slot_free_at[slot] = last_use[gi] + 1;
        storage_of[grp.output.0] = slot;
    }
    MemoryPlan {
        storage_of,
        slot_sizes,
        slot_aligns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fuse;
    use crate::workloads::Conv2dWorkload;

    fn chain_graph(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut x = g.input(&[1, 8, 8, 8], "data");
        for i in 0..n {
            let w = Conv2dWorkload {
                batch: 1,
                size: 8,
                in_c: 8,
                out_c: 8,
                kernel: 3,
                stride: 1,
                pad: 1,
            };
            x = g.conv2d(x, w, &format!("conv{i}"));
        }
        g.outputs.push(x);
        g
    }

    #[test]
    fn chain_reuses_two_slots() {
        // A linear chain needs only 2 ping-pong buffers regardless of depth.
        let g = chain_graph(6);
        let fused = fuse(&g, true);
        let plan = plan_memory(&g, &fused);
        assert_eq!(plan.slot_sizes.len(), 2, "{:?}", plan.slot_sizes);
        assert!(plan.total_bytes() < plan.naive_bytes(&g, &fused));
    }

    #[test]
    fn residual_extends_liveness() {
        let mut g = Graph::new();
        let x = g.input(&[1, 8, 8, 8], "data");
        let w = Conv2dWorkload {
            batch: 1,
            size: 8,
            in_c: 8,
            out_c: 8,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let c1 = g.conv2d(x, w, "c1");
        let c2 = g.conv2d(c1, w, "c2");
        let c3 = g.conv2d(c2, w, "c3");
        let res = g.add_op(c3, c1, "res"); // c1 stays live across c2, c3
        g.outputs.push(res);
        let fused = fuse(&g, true);
        let plan = plan_memory(&g, &fused);
        // c1 cannot share with c2 or c3: at least 3 slots.
        assert!(plan.slot_sizes.len() >= 3, "{:?}", plan.slot_sizes);
        // Every materialized output has a valid slot.
        for grp in &fused.groups {
            assert_ne!(plan.storage_of[grp.output.0], usize::MAX);
        }
    }

    #[test]
    fn slot_sizes_are_dtype_aware() {
        use crate::ir::OpType;
        use tvm_ir::DType;
        // Same element count, three dtypes: planned bytes must reflect
        // each dtype's width, not a hard-coded 4 bytes/element.
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 4, 4], "data"); // f32
        let q = g.add_typed(
            OpType::Relu,
            vec![x],
            vec![1, 4, 4, 4],
            DType::int8(),
            "quant",
        );
        let h = g.add_typed(
            OpType::Relu,
            vec![q],
            vec![1, 4, 4, 4],
            DType::float16(),
            "half",
        );
        let f = g.add_typed(
            OpType::Relu,
            vec![h],
            vec![1, 4, 4, 4],
            DType::float32(),
            "full",
        );
        g.outputs.push(f);
        let fused = fuse(&g, false);
        let plan = plan_memory(&g, &fused);
        let numel = 64usize;
        // Naive accounting: one buffer per output at its own width.
        assert_eq!(plan.naive_bytes(&g, &fused), numel * (1 + 2 + 4));
        // Every slot's byte size matches some output's numel * dtype width;
        // in particular the f32 output cannot squeeze into the i8 slot.
        assert!(plan.slot_sizes.iter().all(|&s| s % numel == 0));
        assert!(plan.total_bytes() >= numel * 4, "{:?}", plan.slot_sizes);
    }

    #[test]
    fn planned_bytes_match_liveness_replay_peak() {
        // Replay the schedule with a reference allocator: allocate each
        // group output at its group index, free it after its last use.
        // The plan's total must cover the observed peak (it is exact for
        // the greedy planner when no slot is oversized).
        let g = chain_graph(6);
        let fused = fuse(&g, true);
        let plan = plan_memory(&g, &fused);

        let consumers = g.consumers();
        let n_groups = fused.groups.len();
        let mut peak = 0usize;
        let mut live: Vec<(usize, usize)> = Vec::new(); // (last_use, bytes)
        for (gi, grp) in fused.groups.iter().enumerate() {
            live.retain(|&(last, _)| last >= gi);
            let node = g.node(grp.output);
            let bytes = node.shape.iter().product::<i64>() as usize * node.dtype.bytes();
            let mut last = gi;
            for &c in &consumers[grp.output.0] {
                let cg = fused.group_of[c.0];
                if cg != usize::MAX {
                    last = last.max(cg);
                }
            }
            if g.outputs.contains(&grp.output) {
                last = n_groups;
            }
            live.push((last, bytes));
            peak = peak.max(live.iter().map(|&(_, b)| b).sum());
        }
        assert!(plan.total_bytes() >= peak);
        // For the uniform f32 chain the greedy plan is exactly the peak.
        assert_eq!(plan.total_bytes(), peak, "{:?}", plan.slot_sizes);
    }

    #[test]
    fn mixed_dtype_reuse_carries_max_alignment() {
        use crate::ir::OpType;
        use tvm_ir::DType;
        // An i8 tensor claims a slot first; an f32 tensor of the same byte
        // size reuses it later. The slot must end up 4-byte aligned.
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 4, 4], "data");
        // 64 i8 elements = 64 bytes, live only into the next op.
        let q = g.add_typed(
            OpType::Relu,
            vec![x],
            vec![1, 4, 4, 4],
            DType::int8(),
            "quant",
        );
        // 64 i8 -> 16 f32 elements = 64 bytes: exact-size reuse candidate.
        let f = g.add_typed(
            OpType::Reshape,
            vec![q],
            vec![1, 16],
            DType::float32(),
            "dequant",
        );
        let r = g.add_typed(OpType::Relu, vec![f], vec![1, 16], DType::float32(), "act");
        g.outputs.push(r);
        let fused = fuse(&g, false);
        let plan = plan_memory(&g, &fused);
        // q (i8) is dead once f is computed, so r (f32, same byte size)
        // reuses q's slot.
        let i8_slot = plan.storage_of[q.0];
        let f32_slot = plan.storage_of[r.0];
        assert_eq!(i8_slot, f32_slot, "{:?}", plan.storage_of);
        // The shared slot's alignment reflects the widest occupant.
        assert_eq!(plan.slot_aligns[i8_slot], 4, "{:?}", plan.slot_aligns);
        // Packed offsets honor each slot's alignment.
        for (si, off) in plan.slot_offsets().iter().enumerate() {
            assert_eq!(off % plan.slot_aligns[si].max(1), 0);
        }
        assert!(plan.arena_bytes() >= plan.total_bytes() - plan.slot_sizes.len() * 4);
    }

    #[test]
    fn slot_offsets_insert_alignment_padding() {
        // Hand-built plan: a 3-byte 1-aligned slot followed by a 4-aligned
        // slot forces 1 byte of padding in the packed arena.
        let plan = MemoryPlan {
            storage_of: vec![],
            slot_sizes: vec![3, 8],
            slot_aligns: vec![1, 4],
        };
        assert_eq!(plan.slot_offsets(), vec![0, 4]);
        assert_eq!(plan.arena_bytes(), 12);
        assert_eq!(plan.total_bytes(), 11);
    }
}
