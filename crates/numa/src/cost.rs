//! Memory access cost model: local vs. remote latency, bandwidth-derived
//! contention penalties and interference from co-located memory hogs.

use crate::topology::{SocketId, Topology};
use crate::Cycles;

/// What kind of memory reference is being charged.
///
/// The distinction matters for the statistics the paper reports (data accesses
/// vs. page-walk accesses) and, in the cost model, because page-walk
/// references are cache-line sized reads issued by the hardware walker whereas
/// data references stand in for whole-cache-line program accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A program load/store to a data page.
    Data,
    /// A hardware page-walker read of a page-table entry.
    PageWalk,
}

/// Describes a memory-bandwidth-heavy co-runner on a socket ("interference"
/// in the paper's configuration matrix, e.g. `RPI-LD`).
///
/// The paper uses a STREAM instance pinned to the interfering socket to hog
/// its local memory bandwidth; we model the effect as a latency multiplier on
/// every access *served by* the loaded socket's memory controller.
#[derive(Debug, Clone, PartialEq)]
pub struct Interference {
    loaded: Vec<SocketId>,
    /// Latency multiplier applied to accesses served by a loaded socket.
    pub latency_factor: f64,
}

impl Interference {
    /// No interference anywhere on the machine.
    pub fn none() -> Self {
        Interference {
            loaded: Vec::new(),
            latency_factor: 1.0,
        }
    }

    /// Creates interference on the given sockets with the default factor.
    ///
    /// The default factor (2.8x) is calibrated so that the
    /// remote-page-table-with-interference configurations reproduce the
    /// 3.0-3.3x slowdowns of Figure 6 and the 3.24x GUPS case of Figure 1.
    pub fn on<I: IntoIterator<Item = SocketId>>(sockets: I) -> Self {
        Interference {
            loaded: sockets.into_iter().collect(),
            latency_factor: 2.8,
        }
    }

    /// Sets a custom latency multiplier.
    pub fn with_latency_factor(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "interference cannot speed memory up");
        self.latency_factor = factor;
        self
    }

    /// Returns `true` if `socket`'s memory controller is loaded.
    pub fn is_loaded(&self, socket: SocketId) -> bool {
        self.loaded.contains(&socket)
    }
}

impl Default for Interference {
    fn default() -> Self {
        Interference::none()
    }
}

/// Cost of one memory access, broken down for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAccessCost {
    /// Total cycles charged for the access.
    pub cycles: Cycles,
    /// Whether the access was served by the issuing core's local socket.
    pub local: bool,
    /// Whether the serving socket was loaded by an interfering process.
    pub interfered: bool,
}

/// Latency/bandwidth cost model of the NUMA machine.
///
/// All latencies are in CPU cycles.  Remote accesses pay the interconnect
/// penalty; accesses served by a socket hosting an interfering
/// bandwidth-heavy process additionally pay the interference factor.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    sockets: usize,
    local_dram_latency: Cycles,
    remote_dram_latency: Cycles,
    l3_hit_latency: Cycles,
    l2_hit_latency: Cycles,
    local_bandwidth_gbps: f64,
    remote_bandwidth_gbps: f64,
    interference: Interference,
    /// Dense `[from][to][kind]` matrix of precomputed access costs, rebuilt
    /// whenever the interference description changes.  `dram_access` — called
    /// once per page-walk level and once per data access, the hottest lookup
    /// in the simulator — reduces to one indexed load from this table.
    matrix: Vec<MemoryAccessCost>,
}

/// Number of [`AccessKind`] variants (the `kind` stride of the matrix).
const KINDS: usize = 2;

#[inline]
fn kind_index(kind: AccessKind) -> usize {
    match kind {
        AccessKind::Data => 0,
        AccessKind::PageWalk => 1,
    }
}

impl CostModel {
    /// Creates a cost model for a machine with `sockets` sockets.
    pub fn new(
        sockets: usize,
        local_dram_latency: Cycles,
        remote_dram_latency: Cycles,
        l3_hit_latency: Cycles,
        local_bandwidth_gbps: f64,
        remote_bandwidth_gbps: f64,
    ) -> Self {
        assert!(sockets > 0);
        assert!(remote_dram_latency >= local_dram_latency);
        let mut model = CostModel {
            sockets,
            local_dram_latency,
            remote_dram_latency,
            l3_hit_latency,
            l2_hit_latency: l3_hit_latency / 3,
            local_bandwidth_gbps,
            remote_bandwidth_gbps,
            interference: Interference::none(),
            matrix: Vec::new(),
        };
        model.rebuild_matrix();
        model
    }

    /// Computes one cell of the access-cost matrix from first principles
    /// (the arithmetic that used to run on every access).
    fn compute_dram_access(&self, from: SocketId, target: SocketId) -> MemoryAccessCost {
        let local = from == target;
        let base = if local {
            self.local_dram_latency
        } else {
            self.remote_dram_latency
        };
        let interfered = self.interference.is_loaded(target);
        let cycles = if interfered {
            (base as f64 * self.interference.latency_factor).round() as Cycles
        } else {
            base
        };
        MemoryAccessCost {
            cycles,
            local,
            interfered,
        }
    }

    /// Rebuilds the dense `[from][to][kind]` cost matrix.
    fn rebuild_matrix(&mut self) {
        let sockets = self.sockets;
        let mut matrix = Vec::with_capacity(sockets * sockets * KINDS);
        for from in 0..sockets {
            for to in 0..sockets {
                let cost =
                    self.compute_dram_access(SocketId::new(from as u16), SocketId::new(to as u16));
                // The raw latency is currently kind-independent; the matrix
                // still carries the kind axis so a future asymmetry (e.g.
                // cache-line vs. full-line transfers) stays a table rebuild
                // rather than a hot-path change.
                for _ in 0..KINDS {
                    matrix.push(cost);
                }
            }
        }
        self.matrix = matrix;
    }

    /// Cost model matching the paper's Xeon E7-4850v3 testbed.
    pub fn paper_testbed(topology: &Topology) -> Self {
        CostModel::new(topology.sockets(), 280, 580, 42, 28.0, 11.0)
    }

    /// Installs (or replaces) the interference description and rebuilds the
    /// precomputed cost matrix to match.
    pub fn set_interference(&mut self, interference: Interference) {
        self.interference = interference;
        self.rebuild_matrix();
    }

    /// Returns the current interference description.
    pub fn interference(&self) -> &Interference {
        &self.interference
    }

    /// Local DRAM access latency in cycles.
    pub fn local_dram_latency(&self) -> Cycles {
        self.local_dram_latency
    }

    /// Remote DRAM access latency in cycles.
    pub fn remote_dram_latency(&self) -> Cycles {
        self.remote_dram_latency
    }

    /// Latency of a hit in the (local) last-level cache.
    pub fn l3_hit_latency(&self) -> Cycles {
        self.l3_hit_latency
    }

    /// Latency of a hit in an inner cache level (used for paging-structure
    /// cache misses that still hit in L2, and for TLB-hit data accesses whose
    /// line is cached).
    pub fn l2_hit_latency(&self) -> Cycles {
        self.l2_hit_latency
    }

    /// Ratio of local to remote bandwidth; used to derive additional queueing
    /// delay for bandwidth-bound streams of remote accesses.
    pub fn remote_bandwidth_penalty(&self) -> f64 {
        self.local_bandwidth_gbps / self.remote_bandwidth_gbps
    }

    /// Charges a DRAM access issued by a core on `from` to memory attached to
    /// `target`: one indexed load from the precomputed cost matrix.
    #[inline]
    pub fn dram_access(
        &self,
        from: SocketId,
        target: SocketId,
        kind: AccessKind,
    ) -> MemoryAccessCost {
        self.matrix[(from.index() * self.sockets + target.index()) * KINDS + kind_index(kind)]
    }

    /// Charges a last-level-cache hit on the issuing socket.
    pub fn llc_hit(&self) -> MemoryAccessCost {
        MemoryAccessCost {
            cycles: self.l3_hit_latency,
            local: true,
            interfered: false,
        }
    }

    /// Charges a hit in a remote socket's last-level cache (a page-table line
    /// recently written by another socket, for example).  Costs roughly the
    /// interconnect round-trip but avoids DRAM.
    pub fn remote_llc_hit(&self) -> MemoryAccessCost {
        let cycles = self.l3_hit_latency.saturating_add(
            self.remote_dram_latency
                .saturating_sub(self.local_dram_latency),
        );
        MemoryAccessCost {
            cycles,
            local: false,
            interfered: false,
        }
    }

    /// Number of sockets the model was built for.
    pub fn sockets(&self) -> usize {
        self.sockets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(4, 280, 580, 42, 28.0, 11.0)
    }

    #[test]
    fn local_access_is_cheaper_than_remote() {
        let m = model();
        let local = m.dram_access(SocketId::new(0), SocketId::new(0), AccessKind::Data);
        let remote = m.dram_access(SocketId::new(0), SocketId::new(1), AccessKind::Data);
        assert!(local.local);
        assert!(!remote.local);
        assert!(remote.cycles > local.cycles);
        assert_eq!(local.cycles, 280);
        assert_eq!(remote.cycles, 580);
    }

    #[test]
    fn interference_inflates_latency_on_loaded_socket_only() {
        let mut m = model();
        m.set_interference(Interference::on([SocketId::new(1)]).with_latency_factor(2.0));
        let to_loaded = m.dram_access(SocketId::new(0), SocketId::new(1), AccessKind::PageWalk);
        let to_idle = m.dram_access(SocketId::new(0), SocketId::new(2), AccessKind::PageWalk);
        assert!(to_loaded.interfered);
        assert!(!to_idle.interfered);
        assert_eq!(to_loaded.cycles, 1160);
        assert_eq!(to_idle.cycles, 580);
    }

    #[test]
    fn interference_also_hits_local_accesses_of_the_loaded_socket() {
        let mut m = model();
        m.set_interference(Interference::on([SocketId::new(0)]));
        let cost = m.dram_access(SocketId::new(0), SocketId::new(0), AccessKind::Data);
        assert!(cost.local);
        assert!(cost.interfered);
        assert!(cost.cycles > 280);
    }

    #[test]
    fn llc_hits_are_cheap() {
        let m = model();
        assert!(
            m.llc_hit().cycles
                < m.dram_access(SocketId::new(0), SocketId::new(0), AccessKind::Data)
                    .cycles
        );
        assert!(
            m.remote_llc_hit().cycles
                < m.dram_access(SocketId::new(0), SocketId::new(1), AccessKind::Data)
                    .cycles
        );
    }

    #[test]
    fn paper_testbed_matches_documented_latencies() {
        let topo = Topology::new(4, 14, 128 << 30, 35 << 20);
        let m = CostModel::paper_testbed(&topo);
        assert_eq!(m.local_dram_latency(), 280);
        assert_eq!(m.remote_dram_latency(), 580);
        assert!((m.remote_bandwidth_penalty() - 28.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "interference cannot speed memory up")]
    fn interference_factor_below_one_panics() {
        let _ = Interference::on([SocketId::new(0)]).with_latency_factor(0.5);
    }
}
