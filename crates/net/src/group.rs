//! Subgroup views over any transport — the `MPI_Comm_split` analog.
//!
//! A [`GroupTransport`] wraps a base [`Transport`] and re-exposes it as a
//! smaller communicator: `rank()`/`size()` report the *group* coordinates,
//! peer ids in `send`/`recv`/`exchange` are translated to base ranks, and
//! `next_op_id` mints op ids from a private [`GroupTagSpace`] in the group
//! region of the tag space (see [`crate::tags`]). Every collective written
//! against the [`Transport`] trait therefore runs unchanged inside a
//! subgroup, and concurrent collectives on sibling groups can never
//! mis-match frames: siblings are disjoint (no shared `(source, tag)`
//! pair), while nested or successive groups sharing ranks get distinct tag
//! scopes from the parent's monotonic op-id counter.
//!
//! Construction is collective. [`GroupTransport::split`] is the
//! `Comm_split` form — every rank of the base communicator calls it with a
//! color, colors are agreed with one small ring allgather, and each rank
//! lands in the subgroup of its color. The agreement's op id, drawn on
//! every base rank, salts the new group's tag scope, so sequential groups
//! never reuse one.

use bytes::Bytes;

use crate::cost::CostModel;
use crate::error::CommError;
use crate::stats::CommStats;
use crate::tags::{GroupTagSpace, TagBlock};
use crate::transport::Transport;

/// A subgroup view of a base transport: remapped rank/size, translated
/// peer ids, and group-scoped op ids. See the module docs.
pub struct GroupTransport<T: Transport> {
    base: T,
    /// Base ranks of the group members, sorted ascending; group rank `g`
    /// is base rank `members[g]`.
    members: Vec<usize>,
    group_rank: usize,
    space: GroupTagSpace,
    next_seq: u64,
    depth: u32,
}

impl<T: Transport + std::fmt::Debug> std::fmt::Debug for GroupTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupTransport")
            .field("group_rank", &self.group_rank)
            .field("members", &self.members)
            .field("depth", &self.depth)
            .field("base", &self.base)
            .finish()
    }
}

impl<T: Transport> GroupTransport<T> {
    /// Wraps `base` as the subgroup `members` (base ranks, any order; the
    /// group order is ascending base rank). `scope_salt` must be a value
    /// drawn from the base's op-id stream by **every base rank** in
    /// lockstep — typically `base.next_op_id()` called on all ranks right
    /// before the member lists diverge — so successive groups get distinct
    /// tag scopes and the base counter stays rank-invariant.
    ///
    /// Fails if `members` has duplicates or out-of-range ranks, or does
    /// not contain the base's own rank (the base transport is dropped with
    /// the error; these are construction bugs, not runtime conditions).
    fn with_scope(base: T, members: Vec<usize>, scope_salt: u64) -> Result<Self, CommError> {
        let mut members = members;
        members.sort_unstable();
        if members.windows(2).any(|w| w[0] == w[1]) {
            return Err(CommError::Protocol(
                "group member list contains duplicate ranks".into(),
            ));
        }
        if let Some(&bad) = members.iter().find(|&&r| r >= base.size()) {
            return Err(CommError::InvalidRank {
                rank: bad,
                size: base.size(),
            });
        }
        let Some(group_rank) = members.iter().position(|&r| r == base.rank()) else {
            return Err(CommError::Protocol(format!(
                "rank {} is not a member of the group {:?}",
                base.rank(),
                members
            )));
        };
        let depth = base.tag_depth() + 1;
        let space = GroupTagSpace::new(depth, scope_salt);
        Ok(GroupTransport {
            base,
            members,
            group_rank,
            space,
            next_seq: 0,
            depth,
        })
    }

    /// `MPI_Comm_split`: every rank of `base` calls this with a `color`;
    /// ranks sharing a color form one subgroup (ordered by base rank) and
    /// each caller receives the view of its own. One ring allgather (P−1
    /// rounds of 8 bytes) agrees on the color assignment; its op id doubles
    /// as the new group's tag-scope salt.
    pub fn split(mut base: T, color: u64) -> Result<Self, CommError> {
        let p = base.size();
        let rank = base.rank();
        let op = base.next_op_id();
        let mut colors = vec![0u64; p];
        colors[rank] = color;
        if p > 1 {
            let block = TagBlock::for_op(op);
            let next = (rank + 1) % p;
            let prev = (rank + p - 1) % p;
            let mut carry = rank;
            for t in 0..p - 1 {
                let payload = Bytes::from(colors[carry].to_le_bytes().to_vec());
                base.send(next, block.tag(t as u64), payload)?;
                let got = base.recv(prev, block.tag(t as u64))?;
                let bytes: [u8; 8] = got
                    .as_ref()
                    .try_into()
                    .map_err(|_| CommError::Protocol("malformed split color frame".into()))?;
                carry = (carry + p - 1) % p;
                colors[carry] = u64::from_le_bytes(bytes);
            }
        }
        let members: Vec<usize> = (0..p).filter(|&r| colors[r] == color).collect();
        GroupTransport::with_scope(base, members, op)
    }

    /// The group's member list as base ranks, ascending (group rank `g` ↔
    /// base rank `members()[g]`).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Borrows the base transport (e.g. to read base-level coordinates).
    pub fn parent(&self) -> &T {
        &self.base
    }

    /// Dissolves the view, returning the base transport.
    pub fn into_parent(self) -> T {
        self.base
    }

    fn translate_out(&self, group_peer: usize) -> Result<usize, CommError> {
        self.members
            .get(group_peer)
            .copied()
            .ok_or(CommError::InvalidRank {
                rank: group_peer,
                size: self.members.len(),
            })
    }

    fn translate_in(&self, base_src: usize) -> Result<usize, CommError> {
        self.members.binary_search(&base_src).map_err(|_| {
            CommError::Protocol(format!(
                "group-tagged message from base rank {base_src}, which is not a member of {:?}",
                self.members
            ))
        })
    }
}

impl<T: Transport> Transport for GroupTransport<T> {
    fn rank(&self) -> usize {
        self.group_rank
    }

    fn backend_name(&self) -> &'static str {
        self.base.backend_name()
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn cost(&self) -> &CostModel {
        self.base.cost()
    }

    fn clock(&self) -> f64 {
        self.base.clock()
    }

    fn advance_clock_to(&mut self, t: f64) {
        self.base.advance_clock_to(t)
    }

    fn charge_seconds(&mut self, seconds: f64) {
        self.base.charge_seconds(seconds)
    }

    fn compute(&mut self, elements: usize) {
        self.base.compute(elements)
    }

    /// Group-scoped op ids from the private [`GroupTagSpace`] — the base
    /// op-id counter is deliberately *not* advanced (sibling groups run
    /// different numbers of collectives; draining the shared counter at
    /// different rates would break its rank-invariance). The session's
    /// `collectives` statistic still counts the operation.
    fn next_op_id(&mut self) -> u64 {
        let id = self.space.op_id(self.next_seq);
        self.next_seq += 1;
        self.base.stats_mut().collectives += 1;
        id
    }

    fn tag_depth(&self) -> u32 {
        self.depth
    }

    fn stats(&self) -> &CommStats {
        self.base.stats()
    }

    fn stats_mut(&mut self) -> &mut CommStats {
        self.base.stats_mut()
    }

    fn reset_clock(&mut self) {
        self.base.reset_clock()
    }

    fn send(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        let dst = self.translate_out(dst)?;
        self.base.send(dst, tag, payload)
    }

    fn isend(&mut self, dst: usize, tag: u64, payload: Bytes) -> Result<(), CommError> {
        let dst = self.translate_out(dst)?;
        self.base.isend(dst, tag, payload)
    }

    fn recv(&mut self, src: usize, tag: u64) -> Result<Bytes, CommError> {
        let src = self.translate_out(src)?;
        self.base.recv(src, tag)
    }

    fn recv_any(&mut self, tag: u64) -> Result<(usize, Bytes), CommError> {
        let (src, payload) = self.base.recv_any(tag)?;
        Ok((self.translate_in(src)?, payload))
    }

    fn detach(&mut self) -> Self {
        GroupTransport {
            base: self.base.detach(),
            members: std::mem::replace(&mut self.members, vec![0]),
            group_rank: std::mem::replace(&mut self.group_rank, 0),
            space: self.space,
            next_seq: self.next_seq,
            depth: self.depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::run_cluster;
    use crate::thread_transport::run_thread_cluster;

    #[test]
    fn split_partitions_by_color_and_remaps_ranks() {
        let out = run_cluster(6, CostModel::zero(), |ep| {
            let base_rank = ep.rank();
            let g = GroupTransport::split(ep.detach(), (base_rank % 2) as u64).unwrap();
            let info = (g.rank(), g.size(), g.members().to_vec());
            *ep = g.into_parent();
            info
        });
        assert_eq!(out[0], (0, 3, vec![0, 2, 4]));
        assert_eq!(out[3], (1, 3, vec![1, 3, 5]));
        assert_eq!(out[5], (2, 3, vec![1, 3, 5]));
    }

    #[test]
    fn group_messaging_translates_peers() {
        let out = run_thread_cluster(4, |tp| {
            // Groups {0,2} and {1,3}: group peer 1-x is base rank ±2.
            let color = (tp.rank() % 2) as u64; // read before detach()
            let mut g = GroupTransport::split(tp.detach(), color).unwrap();
            let peer = 1 - g.rank();
            let got = g
                .exchange(peer, 7, Bytes::from(vec![g.parent().rank() as u8]))
                .unwrap();
            let base = g.into_parent();
            *tp = base;
            got[0]
        });
        // Base rank 0 hears from 2, 1 from 3, and vice versa.
        assert_eq!(out, vec![2, 3, 0, 1]);
    }

    #[test]
    fn group_op_ids_live_in_the_group_region_and_differ_across_splits() {
        let out = run_cluster(2, CostModel::zero(), |ep| {
            let mut g1 = GroupTransport::split(ep.detach(), 0).unwrap();
            let id1 = g1.next_op_id();
            let base = g1.into_parent();
            let mut g2 = GroupTransport::split(base, 0).unwrap();
            let id2 = g2.next_op_id();
            *ep = g2.into_parent();
            (id1, id2)
        });
        let (id1, id2) = out[0];
        assert!(crate::tags::is_group_op(id1));
        assert!(crate::tags::is_group_op(id2));
        // Sequential same-member groups draw different scopes.
        assert_ne!(id1, id2);
        assert!(!TagBlock::for_op(id1).contains(TagBlock::for_op(id2).tag(0)));
    }

    #[test]
    fn nested_split_tracks_depth() {
        let out = run_cluster(4, CostModel::zero(), |ep| {
            let color = (ep.rank() < 1) as u64; // read before detach()
            let outer = GroupTransport::split(ep.detach(), color).unwrap();
            let inner = GroupTransport::split(outer, 0).unwrap();
            let depths = (inner.tag_depth(), inner.parent().tag_depth());
            let sizes = (inner.size(), inner.parent().size());
            *ep = inner.into_parent().into_parent();
            (depths, sizes)
        });
        // Ranks 1..3 share color 0: outer group of 3, inner of the same 3.
        assert_eq!(out[1], ((2, 1), (3, 3)));
    }

    #[test]
    fn singleton_group_works() {
        let out = run_cluster(3, CostModel::zero(), |ep| {
            let color = ep.rank() as u64; // read before detach()
            let g = GroupTransport::split(ep.detach(), color).unwrap();
            let info = (g.rank(), g.size());
            *ep = g.into_parent();
            info
        });
        assert!(out.iter().all(|&i| i == (0, 1)));
    }

    #[test]
    fn invalid_member_lists_are_rejected() {
        use crate::endpoint::standalone_endpoint;
        // Duplicate member.
        let err = GroupTransport::with_scope(standalone_endpoint(), vec![0, 0], 1).unwrap_err();
        assert!(matches!(err, CommError::Protocol(_)), "got {err:?}");
        // Out-of-range member.
        let err = GroupTransport::with_scope(standalone_endpoint(), vec![0, 9], 1).unwrap_err();
        assert!(
            matches!(err, CommError::InvalidRank { rank: 9, .. }),
            "got {err:?}"
        );
        // Caller not a member.
        let err = GroupTransport::with_scope(standalone_endpoint(), vec![], 1).unwrap_err();
        assert!(matches!(err, CommError::Protocol(_)), "got {err:?}");
    }

    #[test]
    fn detach_leaves_singleton_placeholder() {
        let out = run_thread_cluster(2, |tp| {
            let mut g = GroupTransport::split(tp.detach(), 0).unwrap();
            let real = g.detach();
            let placeholder = (g.rank(), g.size());
            let g = real;
            *tp = g.into_parent();
            placeholder
        });
        assert_eq!(out, vec![(0, 1), (0, 1)]);
    }
}
