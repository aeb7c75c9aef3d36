"""D2M and the baseline also run on a 2-D mesh interconnect."""

from tests.helpers import TraceDriver
from repro.common.params import base_2l, d2m_fs
from repro.core.hierarchy import build_hierarchy
from repro.noc.topology import Mesh2D


def with_mesh(driver):
    network = driver.hierarchy.network
    network.topology = Mesh2D(network.topology.nodes)
    return driver


class TestMeshTopology:
    def test_oracle_holds_on_mesh(self):
        for factory in (base_2l, d2m_fs):
            driver = with_mesh(TraceDriver(build_hierarchy(factory(4)),
                                           seed=41))
            driver.random_burst(4000, cores=4)

    def test_mesh_accumulates_more_hops_than_crossbar(self):
        xbar = TraceDriver(build_hierarchy(d2m_fs(4)), seed=43)
        mesh = with_mesh(TraceDriver(build_hierarchy(d2m_fs(4)), seed=43))
        xbar.random_burst(3000, cores=4)
        mesh.random_burst(3000, cores=4)
        def hops(driver):
            return sum(h * n for (_k, h), n
                       in driver.hierarchy.network._counts.items())
        assert hops(mesh) >= hops(xbar)
