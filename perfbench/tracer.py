"""Spans around calls into ibnsim's layers, recorded from outside ``src/``.

``Tracer`` replaces each function named in ``TARGETS`` with a wrapper that
records one span per call: name, start, end and the span that was open when
the call began (its parent).  Several modules import these functions by name
(``simulation`` and ``multidomain`` both hold their own ``install_intent``,
for example), so every module attribute of the ``ibnsim`` package that is the
original function is replaced, not just the defining one; methods are
replaced on their class.  Leaving the ``with`` block puts every original
back.

Spans stay in memory until the caller writes them out.  A span's self time
is its duration minus the durations of its direct children, so recursion
such as ``compile_connectivity -> compile_crossdomain -> compile_connectivity``
is never counted twice.
"""

import functools
import importlib
import pkgutil
import time
from collections import Counter

# (module, attribute) of every wrapped callable; "Class.method" for methods.
# Spans are named "<module>.<function>".
TARGETS = (
    ("network", "NetworkGraph.k_shortest_paths"),
    ("compilation", "first_fit_spectrum"),
    ("compilation", "compile_connectivity"),
    ("compilation", "compile_probe"),
    ("compilation", "install_intent"),
    ("compilation", "uninstall_intent"),
    ("intents", "IntentDAG.aggregate_state"),
    ("intents", "IntentDAG.remove_intent"),
    ("multidomain", "deliver_messages"),
    ("multidomain", "handle_message"),
    ("multidomain", "compile_crossdomain"),
    ("simulation", "monitor_failure"),
    ("simulation", "monitor_repair"),
    ("scenario", "parse_scenario"),
    ("scenario", "Scenario.build_domains"),
    ("scenario", "Scenario.build_events"),
    ("export", "write_run_artifacts"),
)

MESSAGE_KINDS = ("delegate", "ack", "statenotify", "installrequest", "uninstall", "remove")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _deliver_counts(delivered):
    counts = Counter(f"multidomain.messages.{m.kind()}" for m in delivered)
    counts["multidomain.deliver_messages.empty"] = not delivered
    return counts


# Counts taken where the work happens, from a wrapped call's result.
OBSERVERS = {
    "compilation.compile_connectivity": lambda r: {
        "compilation.compile_connectivity.blocked": r.outcome.value == "blocked"},
    "compilation.install_intent": lambda r: {
        "compilation.install_intent.conflict": r.value == "conflict"},
    "multidomain.deliver_messages": _deliver_counts,
    "export.write_run_artifacts": lambda paths: {
        "export.write_run_artifacts.bytes": sum(p.stat().st_size for p in paths)},
}


class Tracer:
    """Wraps every binding of the ``TARGETS`` while used as a context manager.

    ``spans`` holds ``[name index, start ns, end ns, parent index]`` per call
    (parent -1 for a span opened with no other span open); ``names`` maps
    the name index to the span name.  ``mark(seq)`` records that every span
    recorded so far and not yet marked belongs to event ``seq``.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = [span_name(m, a) for m, a in TARGETS]
        self.spans = []
        self.marks = []  # [(span count at mark, event seq)]
        self.counts = Counter()
        self._stack = []
        self._patched = []  # [(owner, attribute, original)]

    def mark(self, seq: int) -> None:
        self.marks.append((len(self.spans), seq))

    def __enter__(self):
        # Import every submodule first: one imported while tracing would bind
        # the wrappers and keep them after the originals are restored.
        package = importlib.import_module("ibnsim")
        modules = [package] + [
            importlib.import_module(f"ibnsim.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for index, (module, attr) in enumerate(TARGETS):
            home = importlib.import_module(f"ibnsim.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch(getattr(home, cls_name), meth, index)
            else:
                original = getattr(home, attr)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, index)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, owner, attr, index):
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, index))

    def _wrap(self, fn, index):
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts
        observe = OBSERVERS.get(self.names[index])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [index, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                counts.update(observe(result))
            return result

        return traced

    # -- reading the spans back ------------------------------------------------

    def event_seqs(self) -> list:
        """Event seq per span (-1 for spans no ``mark`` closed)."""
        seqs = [-1] * len(self.spans)
        done = 0
        for upto, seq in self.marks:
            seqs[done:upto] = [seq] * (upto - done)
            done = upto
        return seqs

    def self_times(self, start_ns: int, end_ns: int):
        """Per-name (calls, self ns) of the spans inside [start_ns, end_ns].

        Also returns the part of the window no top-level span covers, so the
        self times plus that remainder add up to the window exactly.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter()
        self_ns = Counter()
        covered = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if start < start_ns or end > end_ns:
                continue
            calls[self.names[name]] += 1
            self_ns[self.names[name]] += end - start - child_ns[i]
            if parent < 0:
                covered += end - start
        return calls, self_ns, end_ns - start_ns - covered

    def write(self, path) -> None:
        """Spans as CSV: name, start_ns, end_ns, parent index, event seq."""
        rows = ["name,start_ns,end_ns,parent,seq"]
        for (name, start, end, parent), seq in zip(self.spans, self.event_seqs()):
            rows.append(f"{self.names[name]},{start},{end},{parent},{seq}")
        path.write_text("\n".join(rows) + "\n")
