"""The ledger's arithmetic, on a fake clock so every number is exact."""

from bench import layers


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, amount):
        self.now += amount


def make_ledger():
    clock = FakeClock()
    ledger = layers.Ledger(clock=clock, cpu_clock=clock)
    return ledger, clock


def test_nested_sync_calls_get_exclusive_time():
    ledger, clock = make_ledger()
    outer_id = ledger.entry("outer", "outer")
    inner_id = ledger.entry("inner", "inner")

    def inner():
        clock.tick(5)

    wrapped_inner = ledger.wrap_sync(inner_id, inner)

    def outer():
        clock.tick(2)
        wrapped_inner()
        clock.tick(3)
        wrapped_inner()
        clock.tick(1)

    wrapped_outer = ledger.wrap_sync(outer_id, outer)
    ledger.reset()
    ledger.active = True
    clock.tick(10)            # uncovered: the root
    wrapped_outer()
    clock.tick(4)
    ledger.settle()
    ledger.active = False
    totals = ledger.layer_self_ns()
    assert totals["outer"] == 6 and totals["inner"] == 10
    assert totals[layers.ROOT] == 14
    assert sum(totals.values()) == clock.now
    assert ledger.calls[inner_id] == 2 and ledger.calls[outer_id] == 1
    # Spans: the two inner calls are children of the outer call.
    assert [span[3] for span in ledger.spans] == [-1, 0, 0]
    assert ledger.spans[0][1:3] == [10, 26]


def test_nested_proxy_generators_attribute_time_per_resume():
    ledger, clock = make_ledger()
    outer_id = ledger.entry("outer", "outer")
    inner_id = ledger.entry("inner", "inner")
    target = layers.Target("inner", "", "", "inner", "gen", hook="latency")

    def inner():
        clock.tick(1)
        got = yield "a"
        clock.tick(2)
        got = yield got + "b"
        clock.tick(3)
        return got + "!"

    wrapped_inner = ledger.wrap_gen(inner_id, inner, target)

    def outer():
        clock.tick(10)
        result = yield from wrapped_inner()
        clock.tick(20)
        return result

    wrapped_outer = ledger.wrap_gen(
        outer_id, outer, layers.Target("outer", "", "", "outer", "gen"))
    ledger.reset()
    ledger.active = True
    process = wrapped_outer()
    assert process.send(None) == "a"
    clock.tick(100)           # suspended: nobody's self time but the root's
    assert process.send("x") == "xb"
    clock.tick(100)
    try:
        process.send("y")
    except StopIteration as stop:
        assert stop.value == "y!"
    else:
        raise AssertionError("generator did not finish")
    ledger.settle()
    totals = ledger.layer_self_ns()
    assert totals["inner"] == 6 and totals["outer"] == 30
    assert totals[layers.ROOT] == 200
    assert sum(totals.values()) == clock.now
    # Born at t=10 (first step), finished at t=216: 206 ns of lifetime.
    assert ledger.latencies("inner", "inner") == [206 / 1e6]


def test_proxy_forwards_throw_and_close():
    ledger, clock = make_ledger()
    entry = ledger.entry("layer", "gen")
    closed = []

    def body():
        try:
            yield 1
        except KeyError:
            yield 2
        try:
            yield 3
        finally:
            closed.append(True)

    wrapped = ledger.wrap_gen(
        entry, body, layers.Target("layer", "", "", "gen", "gen"))
    ledger.active = True
    process = wrapped()
    assert next(process) == 1
    assert process.throw(KeyError()) == 2
    assert next(process) == 3
    process.close()
    assert closed == [True]
    assert ledger.stack == [ledger.root]


def test_inactive_ledger_passes_straight_through():
    ledger, clock = make_ledger()
    entry = ledger.entry("layer", "f")
    wrapped = ledger.wrap_sync(entry, lambda: clock.tick(7) or "ok")
    assert wrapped() == "ok"
    assert ledger.calls[entry] == 0 and ledger.self_ns[entry] == 0

    def body():
        yield 1

    gen_wrapped = ledger.wrap_gen(
        entry, body, layers.Target("layer", "", "", "f", "gen"))
    assert gen_wrapped().gi_code is body.__code__      # the raw generator


def test_select_time_is_idle_and_its_cpu_untraced():
    clock, cpu = FakeClock(), FakeClock()
    ledger = layers.Ledger(clock=clock, cpu_clock=cpu)

    def select(selector, timeout=None):
        clock.tick(1000)      # blocked for 1000 ns of wall time...
        cpu.tick(30)          # ...of which 30 ns were on the CPU
        return []

    wrapped = ledger.wrap_select(select)
    ledger.reset()
    ledger.active = True
    clock.tick(5)
    wrapped(object(), 0.5)
    ledger.settle()
    totals = ledger.layer_self_ns()
    assert totals[layers.IDLE] == 970
    assert totals[layers.ROOT] == 35


def test_install_patches_every_target_and_uninstall_restores_identity():
    before = {(owner, attr): owner.__dict__[attr]
              for owner, attr in layers.patched_names()}
    assert len(before) > 40
    ledger = layers.Ledger()
    layers.install(ledger)
    try:
        assert ledger.missing == []
        for (owner, attr), original in before.items():
            assert owner.__dict__[attr] is not original
            inner = owner.__dict__[attr].__wrapped__
            assert getattr(inner, "__wrapped__", inner) is original
    finally:
        layers.uninstall(ledger)
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original
