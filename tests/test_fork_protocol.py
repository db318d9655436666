"""Unit tests for the shared fork-collection engine (Lines 1-35)."""

from repro.core.fork_collection import ForkProtocol
from repro.core.forks import ForkTable
from repro.core.messages import ForkGrant, ForkRequest
from repro.core.states import NodeState

from helpers import FakeNode
from oracles import fork_scan


class Host:
    """Scriptable ForkHost: colors decide priority, flags are explicit."""

    def __init__(self, node, colors, my_color, gate=True):
        self.node = node
        self.forks = ForkTable()
        self.colors = colors
        self.my_color = my_color
        self.gate = gate  # behind SDf / hungry
        self.ate = 0

    def is_low(self, peer):
        return self.colors.get(peer, 10 ** 9) < self.my_color

    def collecting(self):
        return self.gate and self.node.state is NodeState.HUNGRY

    def bypass_grants(self):
        return not self.gate

    def want_back(self, peer):
        return self.is_low(peer) and self.gate

    def enter_cs(self):
        self.ate += 1
        self.node.set_state(NodeState.EATING)


def build(colors, my_color, holds=(), neighbors=None, state=NodeState.HUNGRY,
          gate=True):
    node = FakeNode(0, neighbors if neighbors is not None else colors.keys())
    node.set_state(state)
    host = Host(node, colors, my_color, gate=gate)
    for peer in holds:
        host.forks.set_holds(peer, True)
    return node, host, ForkProtocol(host)


def test_start_collection_eats_with_all_forks():
    node, host, proto = build({1: 0, 2: 5}, my_color=3, holds=(1, 2))
    proto.start_collection()
    assert host.ate == 1


def test_start_collection_requests_low_first():
    node, host, proto = build({1: 0, 2: 5}, my_color=3)
    proto.start_collection()
    # Missing both; only the low fork (peer 1, color 0 < 3) is requested.
    assert [d for d, m in node.sent if isinstance(m, ForkRequest)] == [1]


def test_start_collection_requests_high_when_low_held():
    node, host, proto = build({1: 0, 2: 5}, my_color=3, holds=(1,))
    proto.start_collection()
    assert [d for d, m in node.sent if isinstance(m, ForkRequest)] == [2]


def test_high_request_suspended_while_all_low_held():
    node, host, proto = build({1: 0, 2: 5}, my_color=3, holds=(1, 2))
    # Eating has not started; we hold everything and peer 2 (high) asks.
    proto.handle_request(2)
    assert 2 in host.forks.suspended
    assert node.sent == []


def test_high_request_granted_when_missing_low():
    node, host, proto = build({1: 0, 2: 5}, my_color=3, holds=(2,))
    proto.handle_request(2)
    grants = [m for d, m in node.sent if isinstance(m, ForkGrant)]
    assert len(grants) == 1
    assert not host.forks.holds(2)


def test_low_request_granted_and_releases_suspended_high():
    node, host, proto = build({1: 0, 2: 5}, my_color=3, holds=(1, 2))
    host.forks.suspended.add(2)
    # Missing nothing but peer 1 (low) asks -> we are not eating, but we
    # hold all forks, so the low request is suspended too...
    proto.handle_request(1)
    assert 1 in host.forks.suspended
    # ...unless something is missing: drop fork 2 and retry.
    host.forks.suspended.discard(1)
    host.forks.set_holds(2, False)
    host.forks.suspended.discard(2)
    proto.handle_request(1)
    sent_to = [d for d, m in node.sent if isinstance(m, ForkGrant)]
    assert sent_to == [1]


def test_low_request_release_high_forks_cascade():
    node, host, proto = build({1: 0, 2: 5, 3: 7}, my_color=3, holds=(1, 2, 3))
    host.forks.set_holds(1, False)  # missing a low fork -> not all forks
    host.forks.suspended.add(2)
    proto.handle_request(3)
    # Request from high neighbor 3: we hold all low? low = {1}, not held
    # -> grant, and since it is a high request, no release cascade.
    grants = [d for d, m in node.sent if isinstance(m, ForkGrant)]
    assert grants == [3]
    # Now a low request triggers release of the still-suspended 2.
    host.forks.set_holds(1, True)
    host.forks.set_holds(3, False)
    node.clear()
    proto.handle_request(1)
    grants = [d for d, m in node.sent if isinstance(m, ForkGrant)]
    assert grants == [1, 2]


def test_request_for_fork_in_transit_ignored():
    node, host, proto = build({1: 0}, my_color=3)
    proto.handle_request(1)  # we do not hold it
    assert node.sent == []


def test_want_back_flag_set_for_low_peer_while_competing():
    node, host, proto = build({1: 0, 2: 5}, my_color=3, holds=(1,))
    proto.send_fork(1)
    grant = node.sent_to(1)[0]
    assert isinstance(grant, ForkGrant) and grant.flag is True
    host_grant = None
    node.clear()
    host.forks.set_holds(2, True)
    proto.send_fork(2)
    grant = node.sent_to(2)[0]
    assert grant.flag is False  # high peer: no want-back


def test_fork_receipt_completing_all_forks_eats():
    node, host, proto = build({1: 0, 2: 5}, my_color=3, holds=(2,))
    proto.handle_fork(1, flag=False)
    assert host.ate == 1


def test_flagged_fork_suspends_sender_when_all_low_held():
    node, host, proto = build({1: 0, 2: 5}, my_color=3)
    proto.handle_fork(1, flag=True)  # completes our low tier
    assert 1 in host.forks.suspended
    # And the high fork gets requested.
    assert [d for d, m in node.sent if isinstance(m, ForkRequest)] == [2]


def test_flagged_fork_bounced_back_when_low_tier_incomplete():
    node, host, proto = build({1: 0, 2: 0, 3: 5}, my_color=3)
    proto.handle_fork(2, flag=True)  # still missing low fork from 1
    grants = [d for d, m in node.sent if isinstance(m, ForkGrant)]
    assert grants == [2]
    assert not host.forks.holds(2)


def test_fork_receipt_outside_gate_returns_flagged_fork():
    node, host, proto = build({1: 0}, my_color=3, gate=False)
    proto.handle_fork(1, flag=True)
    grants = [d for d, m in node.sent if isinstance(m, ForkGrant)]
    assert grants == [1]
    assert host.ate == 0


def test_grant_suspended_clears_queue():
    node, host, proto = build({1: 0, 2: 5}, my_color=3, holds=(1, 2))
    host.forks.suspended.update({1, 2})
    proto.grant_suspended()
    grants = sorted(d for d, m in node.sent if isinstance(m, ForkGrant))
    assert grants == [1, 2]
    assert host.forks.suspended == set()


def test_request_dedup():
    node, host, proto = build({1: 0, 2: 5}, my_color=3)
    proto.recheck()
    proto.recheck()
    requests = [d for d, m in node.sent if isinstance(m, ForkRequest)]
    assert requests == [1]
    proto.clear_requests()
    proto.recheck()
    requests = [d for d, m in node.sent if isinstance(m, ForkRequest)]
    assert requests == [1, 1]


def test_recheck_noop_when_not_collecting():
    node, host, proto = build({1: 0}, my_color=3, state=NodeState.THINKING)
    proto.recheck()
    assert node.sent == []


def test_recheck_eats_after_neighbor_departed():
    node, host, proto = build({1: 0, 2: 5}, my_color=3, holds=(1,))
    # Neighbor 2 (whose fork we miss) disappears.
    node.set_neighbors((1,))
    host.forks.link_destroyed(2)
    proto.recheck()
    assert host.ate == 1


def test_fork_table_macros():
    table = ForkTable()
    table.set_holds(1, True)
    table.set_holds(2, False)
    assert table.all_forks(frozenset({1})) is True
    assert table.all_forks(frozenset({1, 2})) is False
    assert fork_scan.all_low_forks(table, frozenset({1, 2}), lambda j: j == 1)
    assert list(fork_scan.missing(table, frozenset({1, 2}), lambda j: True)) == [2]
    assert table.held == {1}
    table.link_created(3, we_are_static=True)
    assert table.holds(3) and table.held == {1, 3}
    table.link_destroyed(3)
    assert not table.holds(3) and table.held == {1}
