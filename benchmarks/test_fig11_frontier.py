"""Figure 11: time/power points of all designs with the Pareto frontier.

Paper claims: in the low-power region (<1 W) 1b-4VL sits on the Pareto
frontier; 1bDV's power-hungry engine keeps it out of the low-power region
entirely, though it reaches the highest performance at high power.
"""

from repro.experiments import figures
from repro.power import system_power_w

APPS = ("saxpy", "blackscholes")


def test_fig11():
    data = figures.fig11(scale="tiny", workloads=APPS)
    for w in APPS:
        pareto = data[w]["pareto"]
        systems_on_front = {t[0] for _, _, t in pareto}
        # big.VLITTLE appears on the frontier
        assert "1b-4VL" in systems_on_front, (w, systems_on_front)
        # the low-power (<1 W) part of the frontier contains no 1bDV point
        low_power = [t for _, p, t in pareto if p < 1.0]
        assert low_power, "some design must be feasible under 1 W"
        assert all(t[0] != "1bDV" for t in low_power)
        # 1bDV simply cannot run below ~1.3 W
        assert min(system_power_w("1bDV", b) for b in ("b0", "b1", "b2", "b3")) > 1.0
    figures.print_fig11(data)
