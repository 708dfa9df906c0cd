"""Packet-level network substrate: packets, queues, links, nodes, routing.

Public surface re-exported here; see DESIGN.md systems S2-S5.  The root
imports none of it: ``repro.net.red`` (the fluid backend's RED
thresholds) or ``repro.net.queue`` (the discipline names) load no link,
node or simulator.
"""

from .. import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, (
    "repro.net.packet:ACK", "repro.net.packet:DATA",
    "repro.net.red:AdaptiveREDQueue", "repro.net.apps:CbrSource",
    "repro.net.codel:CoDelQueue", "repro.net.droptail:DropTailQueue",
    "repro.net.queue:GATEWAY_DISCIPLINES", "repro.net.queue:Gateway",
    "repro.net.network:GatewayFactory", "repro.net.link:Link",
    "repro.net.network:Network", "repro.net.node:Node",
    "repro.net.pie:PIEQueue", "repro.net.packet:Packet",
    "repro.net.apps:PacketSink", "repro.net.network:QueueFactory",
    "repro.net.monitor:QueueMonitor", "repro.net.red:REDQueue",
    "repro.net.faults:RandomDropQueue",
    "repro.net.faults:random_drop_factory", "repro.net.packet:SackBlock",
    "repro.net.addressing:flow_id", "repro.net.addressing:group_address",
    "repro.net.addressing:is_multicast",
    "repro.net.multicast:shortest_path_tree",
    "repro.net.multicast:tree_edges",
))
