"""``repro lint --explain REPxxx`` — the contract and an example fix.

Every registered code gets a three-part explanation: the contract it
enforces, a minimal violating example, and the idiomatic fix.  A test pins
this table to the checker registry, so adding a code without teaching
``--explain`` about it fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .registry import all_codes

__all__ = ["EXPLANATIONS", "Explanation", "explain"]


@dataclass(frozen=True)
class Explanation:
    """Contract, violating example and fix for one REP code."""

    contract: str
    bad: str
    fix: str


EXPLANATIONS: dict[str, Explanation] = {
    "REP000": Explanation(
        contract=(
            "Every linted file must parse as Python; a syntax error anywhere "
            "means no contract in that file was checked."
        ),
        bad="def broken(:  # SyntaxError",
        fix="Fix the syntax error; REP000 cannot be suppressed.",
    ),
    "REP101": Explanation(
        contract=(
            "Identifiers carry units through canonical suffixes only "
            "(registry derived from repro/units.py); near-miss spellings "
            "like '_watts' or '_secs' are rejected with the canonical form."
        ),
        bad="idle_watts = 200.0",
        fix="idle_w = 200.0  # canonical suffix from the unit registry",
    ),
    "REP102": Explanation(
        contract=(
            "Addition, subtraction and ordering/equality comparisons must "
            "not mix suffixes of different dimensions or scales within one "
            "expression; multiplication/division legitimately build derived "
            "quantities and are exempt."
        ),
        bad="total = power_kw + energy_kwh",
        fix=(
            "energy_kwh = kw_to_w(power_kw) * duration_s / 3.6e6  # convert "
            "explicitly via repro.units before combining"
        ),
    ),
    "REP103": Explanation(
        contract=(
            "A call argument's unit must match the callee parameter's unit, "
            "resolved interprocedurally through the project call graph — "
            "the callee may live in another module."
        ),
        bad="kw_to_w(power_mw)  # parameter is value_kw",
        fix="kw_to_w(mw_to_kw(power_mw))  # convert to the parameter's unit",
    ),
    "REP104": Explanation(
        contract=(
            "A value whose unit is only known through a resolved function "
            "signature (callee return unit, declared return unit) must not "
            "be bound to a slot carrying an incompatible suffix — "
            "assignment targets, returns, or +/-/comparison arithmetic."
        ),
        bad="energy_kwh = node_power_kw(n)  # callee returns kilowatts",
        fix=(
            "power_kw = node_power_kw(n)\n"
            "energy_kwh = power_kw * duration_hours  # derive, then name"
        ),
    ),
    "REP201": Explanation(
        contract=(
            "Library code must not read the wall clock (time.time, "
            "datetime.now); scenario results must be a pure function of "
            "their inputs.  Entry points (CLIs, the live monitor) are "
            "allow-listed."
        ),
        bad="stamp = time.time()",
        fix=(
            "Accept the timestamp as a parameter, or annotate an entry "
            "point with `# lint: allow-wallclock -- reason`."
        ),
    ),
    "REP202": Explanation(
        contract=(
            "Random number generators must be explicitly seeded "
            "(np.random.default_rng(seed), random.Random(seed)); unseeded "
            "draws make runs unreproducible."
        ),
        bad="rng = np.random.default_rng()",
        fix="rng = np.random.default_rng(seed)  # thread the seed through",
    ),
    "REP301": Explanation(
        contract=(
            "Floating-point values must not be compared with == or !=; "
            "accumulated rounding makes exact equality a latent flake."
        ),
        bad="if energy_kwh == expected:",
        fix=(
            "if math.isclose(energy_kwh, expected, rel_tol=1e-9):  # or "
            "annotate a true sentinel with `# lint: exact-float -- reason`"
        ),
    ),
    "REP401": Explanation(
        contract=(
            "A class defining state_dict must define load_state_dict and "
            "vice versa; checkpoint resume restores components in place."
        ),
        bad="class Tracker:\n    def state_dict(self): ...",
        fix=(
            "class Tracker:\n    def state_dict(self): ...\n"
            "    def load_state_dict(self, state): ..."
        ),
    ),
    "REP402": Explanation(
        contract=(
            "The literal keys state_dict writes and the keys "
            "load_state_dict reads must agree; a one-sided key silently "
            "drops state across a checkpoint round-trip."
        ),
        bad=(
            "def state_dict(self): return {'a': self.a, 'b': self.b}\n"
            "def load_state_dict(self, s): self.a = s['a']"
        ),
        fix="Read every written key: self.b = s['b'] (or stop writing it).",
    ),
    "REP403": Explanation(
        contract=(
            "Within one class, the set of components snapshot in "
            "state_dict (self.x.state_dict()) must equal the set restored "
            "in load_state_dict (self.x.load_state_dict(...) or "
            "reconstruction from the state argument)."
        ),
        bad=(
            "def state_dict(self):\n"
            "    return {'sched': self.scheduler.state_dict()}\n"
            "def load_state_dict(self, state):\n"
            "    pass  # scheduler never restored"
        ),
        fix=(
            "def load_state_dict(self, state):\n"
            "    self.scheduler.load_state_dict(state['sched'])"
        ),
    ),
    "REP404": Explanation(
        contract=(
            "Every component referenced inside a state_dict/load_state_dict "
            "pair must itself define the symmetric pair (resolved "
            "cross-module through the project graph, base classes "
            "included); nested state must round-trip to any depth."
        ),
        bad=(
            "self.feed.state_dict()  # Feed defines state_dict only"
        ),
        fix="Give Feed a load_state_dict restoring everything it snapshots.",
    ),
    "REP501": Explanation(
        contract=(
            "Every public name exported by the package __init__ must be "
            "pinned by the public-API contract test."
        ),
        bad="__all__ = [..., 'new_helper']  # not in test_public_api.py",
        fix="Add the name to tests/test_public_api.py's expected set.",
    ),
    "REP502": Explanation(
        contract=(
            "The public-API contract test must not pin names the package "
            "no longer exports."
        ),
        bad="test_public_api.py expects 'old_helper', __init__ dropped it",
        fix="Remove the stale name from the contract test (or re-export it).",
    ),
    "REP601": Explanation(
        contract=(
            "No blocking call may be reachable from an async def without "
            "an intervening await: blocking primitives (time.sleep, sync "
            "file/socket IO, subprocess) and heavy engine entry points "
            "(FacilityCore.evaluate_point/sweep, run_sweep, "
            "evaluate_scenario) stall every request sharing the loop.  The "
            "call graph is followed through sync helpers and dispatch "
            "tables."
        ),
        bad="async def handle(self):\n    time.sleep(0.1)",
        fix=(
            "await asyncio.sleep(0.1)  # or run_in_executor for real "
            "blocking work; a deliberate in-loop computation takes "
            "`# lint: allow-blocking -- reason`"
        ),
    ),
    "REP602": Explanation(
        contract=(
            "A coroutine created by calling an async def (or "
            "asyncio.sleep/gather/wait/wait_for) must be awaited; a bare "
            "expression statement discards it and nothing runs."
        ),
        bad="async def run(self):\n    self.flush()  # flush is async",
        fix=(
            "await self.flush()  # or asyncio.create_task(self.flush()) "
            "to run it concurrently"
        ),
    ),
    "REP603": Explanation(
        contract=(
            "Shared self state must not be read into a local, held across "
            "an await, then written back: interleaved requests observe the "
            "pre-await value and their updates are lost.  Single-statement "
            "read-modify-writes are atomic on the loop; reads and writes "
            "under one `async with` lock are exempt."
        ),
        bad=(
            "count = self.counts.get(key, 0)\n"
            "await self.flush()\n"
            "self.counts[key] = count + 1"
        ),
        fix=(
            "self.counts[key] = self.counts.get(key, 0) + 1  # atomic on "
            "the loop; then await"
        ),
    ),
}


def explain(code: str) -> str:
    """The rendered ``--explain`` text for one code (raises on unknown)."""
    code = code.strip().upper()
    known = {"REP000": "file does not parse"}
    known.update(all_codes())
    if code not in known:
        raise ConfigurationError(
            f"unknown code {code!r}; run --list-checks for the registry"
        )
    entry = EXPLANATIONS.get(code)
    if entry is None:
        raise ConfigurationError(
            f"code {code} has no explanation registered — add one to "
            "repro/lint/explain.py"
        )
    lines = [
        f"{code} — {known[code]}",
        "",
        "Contract:",
        f"  {entry.contract}",
        "",
        "Violation:",
        *(f"  {line}" for line in entry.bad.splitlines()),
        "",
        "Fix:",
        *(f"  {line}" for line in entry.fix.splitlines()),
    ]
    return "\n".join(lines)
