//! Description of the simulated machine.

/// Static description of the simulated machine, patterned on a Piz Daint
/// XC50 node: one 12-core Xeon E5-2690 v3 and one P100 per node.
#[derive(Clone, Debug)]
pub struct MachineDesc {
    /// Number of nodes.
    pub nodes: usize,
    /// CPU cores per node.
    pub cpus_per_node: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
}

impl MachineDesc {
    /// A Piz-Daint-like machine: 12 CPU cores + 1 GPU per node.
    pub fn piz_daint(nodes: usize) -> Self {
        assert!(nodes > 0, "machine must have at least one node");
        MachineDesc {
            nodes,
            cpus_per_node: 12,
            gpus_per_node: 1,
        }
    }

    /// Total processors per node.
    pub fn procs_per_node(&self) -> usize {
        self.cpus_per_node + self.gpus_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piz_daint_shape() {
        let m = MachineDesc::piz_daint(4);
        assert_eq!(m.nodes, 4);
        assert_eq!(m.procs_per_node(), 13);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        MachineDesc::piz_daint(0);
    }
}
