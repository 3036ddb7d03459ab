"""The base pair and the two groups `verify_suite` hands to its suites."""

from wreathdec import oracle


def suite_groups(p, w):
    """(pair, gw, hw) at the default guard.  Read through the module at call
    time, so a test that patches `oracle.base_group` gets groups on its pair."""
    return oracle.base_group(p), oracle.wreath_group(p, w, "G"), oracle.wreath_group(p, w, "H")
