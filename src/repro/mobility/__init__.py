"""Mobility models and the controller that drives node movement.

Movement happens in *episodes*: a node marks itself moving (the link
layer's start signal), advances along a straight segment in discrete
steps — re-evaluating unit-disk connectivity at every step — and then
marks itself static again.  Crashed nodes freeze immediately, matching
the paper's "a node does not change its location after it fails".
"""

from repro.mobility.base import Episode, MobilityController, MobilityModel
from repro.mobility.gauss_markov import GaussMarkov
from repro.mobility.group import GroupCenter, GroupMobility
from repro.mobility.plan import MobilityPlan
from repro.mobility.static import StaticMobility
from repro.mobility.trace import ScriptedMobility, ScriptedMove
from repro.mobility.walk import RandomWalk
from repro.mobility.waypoint import RandomWaypoint

__all__ = [
    "Episode",
    "GaussMarkov",
    "GroupCenter",
    "GroupMobility",
    "MobilityController",
    "MobilityModel",
    "MobilityPlan",
    "RandomWalk",
    "RandomWaypoint",
    "ScriptedMobility",
    "ScriptedMove",
    "StaticMobility",
]
