"""Packet-level network substrate: packets, queues, links, nodes, routing.

Public surface re-exported here; see DESIGN.md systems S2-S5.
"""

from .addressing import flow_id, group_address, is_multicast
from .apps import CbrSource, PacketSink
from .codel import CoDelQueue
from .droptail import DropTailQueue
from .faults import RandomDropQueue, random_drop_factory
from .link import Link
from .monitor import QueueMonitor
from .multicast import shortest_path_tree, tree_edges
from .network import GATEWAY_DISCIPLINES, GatewayFactory, Network, QueueFactory
from .node import Node
from .packet import ACK, DATA, Packet, SackBlock
from .pie import PIEQueue
from .queue import Gateway
from .red import AdaptiveREDQueue, REDQueue

__all__ = [
    "ACK",
    "DATA",
    "AdaptiveREDQueue",
    "CbrSource",
    "CoDelQueue",
    "DropTailQueue",
    "GATEWAY_DISCIPLINES",
    "Gateway",
    "GatewayFactory",
    "Link",
    "Network",
    "Node",
    "PIEQueue",
    "Packet",
    "PacketSink",
    "QueueFactory",
    "QueueMonitor",
    "REDQueue",
    "RandomDropQueue",
    "random_drop_factory",
    "SackBlock",
    "flow_id",
    "group_address",
    "is_multicast",
    "shortest_path_tree",
    "tree_edges",
]
