//! Cluster topology descriptors: which ranks share a node.
//!
//! The paper's large-scale runs place many ranks per node, where intra-node
//! links are an order of magnitude faster than inter-node links (§5.2,
//! §6). A [`Topology`] records that placement as explicit node groups so
//! the hierarchical collectives (intra-node reduce → inter-node allreduce
//! among node leaders → intra-node broadcast) and the topology-aware
//! selector can exploit the gap.
//!
//! Two ways to obtain one:
//!
//! * explicitly — [`Topology::uniform`] / [`Topology::from_groups`] /
//!   [`Topology::from_node_ids`];
//! * from the environment — [`Topology::from_env`] reads
//!   `SPARCML_TOPOLOGY` (`"2x4"`: 2 nodes × 4 ranks) or `SPARCML_NODES`
//!   (`"0,0,0,0,1,1,1,1"`: per-rank node ids), which the socket launcher
//!   exports for every rank next to the `SPARCML_RANK` bootstrap. A
//!   worker calls it once at start-up and hands the result to the
//!   collectives; nothing reads the environment per call.

use crate::error::CommError;

/// Environment variable describing the whole cluster as `"NxM"` (N nodes ×
/// M consecutive ranks per node).
pub const ENV_TOPOLOGY: &str = "SPARCML_TOPOLOGY";

/// Environment variable listing every rank's node id, comma-separated.
pub const ENV_NODES: &str = "SPARCML_NODES";

/// A partition of the ranks `0..size` into node groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Node groups; each inner list is sorted ascending and non-empty.
    groups: Vec<Vec<usize>>,
    /// `node_of[rank]` = index into `groups`.
    node_of: Vec<usize>,
}

impl Topology {
    /// Builds a topology from explicit node groups. The groups must
    /// partition `0..size` for some `size` (every rank in exactly one
    /// group, no gaps); member order within a group is normalized to
    /// ascending.
    pub fn from_groups(groups: Vec<Vec<usize>>) -> Result<Topology, CommError> {
        let size: usize = groups.iter().map(Vec::len).sum();
        let mut node_of = vec![usize::MAX; size];
        let mut groups = groups;
        for (node, group) in groups.iter_mut().enumerate() {
            if group.is_empty() {
                return Err(CommError::Protocol(format!(
                    "topology node {node} is empty"
                )));
            }
            group.sort_unstable();
            for &rank in group.iter() {
                if rank >= size {
                    return Err(CommError::Protocol(format!(
                        "topology rank {rank} out of range for {size} ranks"
                    )));
                }
                if node_of[rank] != usize::MAX {
                    return Err(CommError::Protocol(format!(
                        "topology assigns rank {rank} to two nodes"
                    )));
                }
                node_of[rank] = node;
            }
        }
        Ok(Topology { groups, node_of })
    }

    /// `nodes` nodes of `per_node` consecutive ranks each — the `"NxM"`
    /// shape (node 0 owns ranks `0..M`, node 1 owns `M..2M`, …).
    pub fn uniform(nodes: usize, per_node: usize) -> Result<Topology, CommError> {
        if nodes == 0 || per_node == 0 {
            return Err(CommError::Protocol(
                "topology needs at least one node and one rank per node".into(),
            ));
        }
        Topology::from_groups(
            (0..nodes)
                .map(|n| (n * per_node..(n + 1) * per_node).collect())
                .collect(),
        )
    }

    /// From per-rank node ids (`ids[rank]` = node of `rank`); nodes are
    /// numbered by ascending id.
    pub fn from_node_ids(ids: &[usize]) -> Result<Topology, CommError> {
        if ids.is_empty() {
            return Err(CommError::Protocol(
                "topology needs at least one rank".into(),
            ));
        }
        let mut distinct: Vec<usize> = ids.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let groups = distinct
            .iter()
            .map(|&node| (0..ids.len()).filter(|&r| ids[r] == node).collect())
            .collect();
        Topology::from_groups(groups)
    }

    /// Every rank on one node — the loopback-cluster truth, and the shape
    /// under which hierarchical schedules degenerate to flat ones.
    pub fn single_node(size: usize) -> Topology {
        Topology::uniform(1, size).expect("size checked by callers")
    }

    /// Reads the topology from the environment: `SPARCML_TOPOLOGY="NxM"`
    /// first, then `SPARCML_NODES="0,0,1,1,…"`. Returns `Ok(None)` when
    /// neither is set; errors on malformed values or a size mismatch with
    /// `size`.
    pub fn from_env(size: usize) -> Result<Option<Topology>, CommError> {
        let topo = if let Ok(spec) = std::env::var(ENV_TOPOLOGY) {
            let (n, m) = spec
                .trim()
                .split_once(['x', 'X'])
                .ok_or_else(|| bad_env(ENV_TOPOLOGY, &spec, "expected \"NxM\""))?;
            let nodes: usize = n
                .trim()
                .parse()
                .map_err(|_| bad_env(ENV_TOPOLOGY, &spec, "non-numeric node count"))?;
            let per: usize = m
                .trim()
                .parse()
                .map_err(|_| bad_env(ENV_TOPOLOGY, &spec, "non-numeric ranks-per-node"))?;
            Some(Topology::uniform(nodes, per)?)
        } else if let Ok(spec) = std::env::var(ENV_NODES) {
            let ids: Vec<usize> = spec
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| bad_env(ENV_NODES, &spec, "non-numeric node id"))
                })
                .collect::<Result<_, _>>()?;
            Some(Topology::from_node_ids(&ids)?)
        } else {
            None
        };
        if let Some(topo) = &topo {
            if topo.size() != size {
                return Err(CommError::Protocol(format!(
                    "environment topology covers {} ranks but the communicator has {size}",
                    topo.size()
                )));
            }
        }
        Ok(topo)
    }

    /// Total rank count.
    pub fn size(&self) -> usize {
        self.node_of.len()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.groups.len()
    }

    /// All node groups (each sorted ascending).
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Node index of `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// The ranks sharing `rank`'s node (including `rank`).
    pub fn group_of(&self, rank: usize) -> &[usize] {
        &self.groups[self.node_of[rank]]
    }

    /// One leader per node: its lowest rank, in node order.
    pub fn leaders(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g[0]).collect()
    }

    /// The leader of `rank`'s node.
    pub fn leader_of(&self, rank: usize) -> usize {
        self.group_of(rank)[0]
    }

    /// Whether `rank` is its node's leader.
    pub fn is_leader(&self, rank: usize) -> bool {
        self.leader_of(rank) == rank
    }

    /// Largest node size (the depth driver of the intra-node phases).
    pub fn max_node_size(&self) -> usize {
        self.groups.iter().map(Vec::len).max().unwrap_or(1)
    }

    /// Whether a two-level schedule cannot help: a single node (purely
    /// intra) or one rank per node (purely inter).
    pub fn is_trivial(&self) -> bool {
        self.num_nodes() <= 1 || self.num_nodes() == self.size()
    }
}

fn bad_env(var: &str, value: &str, why: &str) -> CommError {
    CommError::Protocol(format!("malformed {var}={value:?}: {why}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_partitions_consecutively() {
        let t = Topology::uniform(2, 4).unwrap();
        assert_eq!(t.size(), 8);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.group_of(5), &[4, 5, 6, 7]);
        assert_eq!(t.leaders(), vec![0, 4]);
        assert!(t.is_leader(4) && !t.is_leader(5));
        assert!(!t.is_trivial());
    }

    #[test]
    fn from_node_ids_handles_interleaved_and_unequal_nodes() {
        let t = Topology::from_node_ids(&[1, 0, 1, 0, 1]).unwrap();
        assert_eq!(t.groups(), &[vec![1, 3], vec![0, 2, 4]]);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.leader_of(2), 0);
        assert_eq!(t.max_node_size(), 3);
    }

    #[test]
    fn invalid_partitions_are_rejected() {
        assert!(Topology::from_groups(vec![vec![0, 1], vec![1, 2]]).is_err());
        assert!(Topology::from_groups(vec![vec![0, 3]]).is_err());
        assert!(Topology::from_groups(vec![vec![0], vec![]]).is_err());
        assert!(Topology::uniform(0, 4).is_err());
    }

    #[test]
    fn trivial_shapes() {
        assert!(Topology::single_node(8).is_trivial());
        assert!(Topology::uniform(8, 1).unwrap().is_trivial());
        assert!(!Topology::uniform(2, 2).unwrap().is_trivial());
    }

    // Environment-variable parsing is tested through `Topology::from_env`'s
    // pure helpers where possible; mutating the process environment in a
    // multi-threaded test binary is racy, so the launcher integration test
    // covers the env path end to end instead.
    #[test]
    fn env_shape_parsing_via_uniform() {
        // The "2x4" spec maps to uniform(2, 4).
        let t = Topology::uniform(2, 4).unwrap();
        assert_eq!(t.groups().len(), 2);
    }
}
