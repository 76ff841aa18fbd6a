"""Deterministic flow routing over a runtime topology.

GPU-initiated DMA on PCIe does not multipath: a transfer from an SSD to
a GPU follows the fabric's fixed route.  :class:`Router` precomputes,
for every (storage node, GPU) pair, the resource-key path used by the
fair-share simulator: the storage device's *egress port* (so a 6 GB/s
SSD serving four GPUs is still a 6 GB/s device) followed by each
directed link on the shortest path (QPI-penalised, so transfers stay on
one socket when possible).

Resource keys are ``("egress", node)`` and ``("link", src, dst)``;
:func:`capacities_for` collects their bytes/s ceilings from the
topology.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.topology import LinkKind, NodeKind, Topology
from repro.hardware.specs import QPI_P2P_BW

ResourceKey = Hashable


def egress_key(node: str) -> Tuple[str, str]:
    """Resource key of a storage device's egress port."""
    return ("egress", node)


def link_key(src: str, dst: str) -> Tuple[str, str, str]:
    """Resource key of one directed physical link."""
    return ("link", src, dst)


def p2p_key(src: str, dst: str) -> Tuple[str, str, str]:
    """Cross-socket P2P forwarding pool for one QPI direction."""
    return ("qpi_p2p", src, dst)


class Router:
    """Route cache from storage bins to GPUs for one topology."""

    def __init__(self, topo: Topology, qpi_penalty: float = 2.0) -> None:
        self.topo = topo
        self.qpi_penalty = qpi_penalty
        self._paths: Dict[Tuple[str, str], Tuple[ResourceKey, ...]] = {}
        self._capacities: Dict[ResourceKey, float] = {}
        self._build()

    def _build(self) -> None:
        for link in self.topo.links:
            self._capacities[link_key(link.src, link.dst)] = link.capacity
            if link.kind is LinkKind.QPI:
                # device-to-device DMA crossing sockets is limited by
                # root-complex P2P forwarding, well below QPI line rate
                self._capacities[p2p_key(link.src, link.dst)] = QPI_P2P_BW
        for node in self.topo.storage_nodes:
            if node.egress_bw is not None:
                self._capacities[egress_key(node.name)] = node.egress_bw
        gpus = self.topo.gpus()
        for store in self.topo.storage_nodes:
            for gpu in gpus:
                self._paths[(store.name, gpu)] = self._route(store.name, gpu)

    def _route(self, store: str, gpu: str) -> Tuple[ResourceKey, ...]:
        owner = self._owner_gpu(store)
        if owner == gpu:
            return ()  # local HBM hit: free
        path = self.topo.shortest_path(store, gpu, qpi_penalty=self.qpi_penalty)
        if path is None:
            raise ValueError(f"no route from {store!r} to {gpu!r}")
        keys: List[ResourceKey] = []
        node = self.topo.node(store)
        if node.egress_bw is not None:
            keys.append(egress_key(store))
        is_device_dma = node.kind in (NodeKind.SSD, NodeKind.GPU_MEM)
        for link in self.topo.path_links(path):
            keys.append(link_key(link.src, link.dst))
            if is_device_dma and link.kind is LinkKind.QPI:
                keys.append(p2p_key(link.src, link.dst))
        return tuple(keys)

    @staticmethod
    def _owner_gpu(store: str) -> Optional[str]:
        """The GPU owning a ``gpuN:mem`` cache bin, else None."""
        if store.endswith(":mem"):
            return store[: -len(":mem")]
        return None

    # ------------------------------------------------------------------
    def path(self, store: str, gpu: str) -> Tuple[ResourceKey, ...]:
        """Resource keys for a (storage bin, GPU) transfer.

        An empty tuple means the transfer is local (GPU's own cache).
        """
        try:
            return self._paths[(store, gpu)]
        except KeyError:
            raise KeyError(f"no cached route for ({store!r}, {gpu!r})") from None

    @property
    def capacities(self) -> Dict[ResourceKey, float]:
        """Copy of every resource's bytes/s ceiling."""
        return dict(self._capacities)

    def crosses_qpi(self, store: str, gpu: str) -> bool:
        """Does the route traverse a QPI link? (Fig. 17's metric.)"""
        for key in self.path(store, gpu):
            if key[0] == "link":
                link = self.topo.link(key[1], key[2])
                if link.kind is LinkKind.QPI:
                    return True
        return False

    def qpi_link_keys(self) -> List[ResourceKey]:
        """Resource keys of all QPI link directions."""
        return [
            link_key(l.src, l.dst)
            for l in self.topo.links
            if l.kind is LinkKind.QPI
        ]


#: Storage-node kinds whose rates :func:`fair_storage_rates` reports.
_STORAGE_KINDS: Tuple[NodeKind, ...] = (NodeKind.SSD, NodeKind.CPU_MEM)


def fair_storage_rates(
    topo: Topology, kinds: Tuple[NodeKind, ...] = _STORAGE_KINDS
) -> Dict[str, float]:
    """Sustainable per-bin service rates under balanced demand.

    One unit flow per (storage node, GPU) pair shares the fabric
    max-min fairly — the same arbitration the epoch simulator enforces
    — and each node's rate is the sum over its flows.  This is the
    service skew the runtime can actually sustain, which is what DDAK
    should weigh storage bins by; genuine asymmetry (a drive behind a
    cascaded switch or a QPI hop) still shows up as a lower rate.
    """
    from repro.simulator.bandwidth import Flow, max_min_rates

    gpus = topo.gpus()
    stores = [n.name for n in topo.storage_nodes if n.kind in kinds]
    if not gpus or not stores:
        return {}
    router = Router(topo)
    flows = [
        Flow(router.path(s, g), 1.0, (s, g)) for s in stores for g in gpus
    ]
    rates = max_min_rates(flows, router.capacities)
    out = {s: 0.0 for s in stores}
    for f, r in zip(flows, rates):
        if r != float("inf"):
            out[f.tag[0]] += r
    return out


#: A bin's predicted rate below this fraction of its fair-share rate
#: counts as "parked at zero" for :func:`reconcile_storage_rates`.
DEGENERATE_RATE_FRAC = 0.05


def reconcile_storage_rates(
    topo: Topology,
    rates: Dict[str, float],
    frac: float = DEGENERATE_RATE_FRAC,
) -> Dict[str, float]:
    """Reconcile pass 1's storage-rate prediction with fair-share reality.

    DDAK weighs storage bins by the optimizer's predicted service
    rates: ``FlowPrediction.storage_rate``, the per-bin flow pass 1's
    max flow (Dinic) leaves in its final residual graph, not a
    multicommodity-LP quantity.  That split can disagree with the
    runtime's max-min arbitration in two ways, both repaired here
    against :func:`fair_storage_rates` (computed per node kind, so
    SSDs are compared among SSDs and memory banks among memory banks):

    * **Degenerate zeros** — many rate splits achieve the same
      bottleneck time, and the max flow may park one of several
      *symmetric* bins at rate zero, starving a perfectly good device
      of data.  A zero is only repaired when it cannot be explained by
      position: a bin whose fair rate ties its kind's *best* class has
      no positional disadvantage, so a near-zero prediction there is
      pure degeneracy and is lifted to the fair rate.  Bins in worse
      fairness classes — e.g. behind a cascaded switch whose shared
      uplink caps the class total — keep their zeros: there the flow is
      deliberately concentrating the class's budget on fewer devices,
      and spreading it back out demonstrably loses in the simulator.
    * **Overestimates** — the max flow can grant a bin its full egress
      bandwidth even when GPU-side ingress contention caps what the
      fair-share runtime will actually serve; weighting by the
      optimistic rate piles hot data onto a device the arbitration
      then throttles.  Rates are capped at the fair-share rate.
    """
    fair = fair_storage_rates(topo)
    if not fair:
        return rates
    kind_of = {n.name: n.kind for n in topo.storage_nodes}
    out = dict(rates)
    for kind in _STORAGE_KINDS:
        group = {s: r for s, r in fair.items() if kind_of[s] is kind}
        if not group:
            continue
        top = max(group.values())
        for store, fair_rate in group.items():
            predicted = out.get(store, 0.0)
            if predicted < frac * fair_rate:
                if fair_rate >= top * (1 - 1e-3):
                    out[store] = fair_rate
            elif predicted > fair_rate:
                out[store] = fair_rate
    return out
