"""Changing a suite's vote configuration.

Gifford treats the vote assignment and quorum sizes as part of the
replicated file itself, so reconfiguration is *just a write* performed
under the **old** configuration's rules:

1. gather an old-configuration write quorum (exclusive locks);
2. read the current contents;
3. stage the same contents, with the **new** configuration in the
   property map and ``version = current + 1``, at the old write quorum
   *and* at every representative new to the suite (created on the spot);
4. commit atomically.

Safety: any later operation under the old configuration must gather a
quorum that intersects the old write quorum used here (``r + w > N``
and ``2w > N``), so it meets a representative carrying the new
configuration, adopts it
(:class:`~repro.errors.StaleConfigurationError` → retry), and proceeds
under the new rules.  Representatives dropped from the suite are
deleted best-effort in the background after commit.

One subtlety spans the two configurations: the commit set holds ``w``
votes under the **old** weights, but when the weights themselves
change it may hold fewer than ``w'`` under the **new** ones — a
post-adoption read quorum could then be assembled entirely from
representatives that missed the reconfiguration write and return the
previous version.  After commit, :func:`_cover_new_write_quorum`
synchronously tops the copy set up to a new-configuration write quorum
(best-effort, ``only_if_newer`` per representative), with the
background refresher as the backstop for whatever it could not reach.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Generator

from ..errors import InvalidConfigurationError, ReproError
from ..txn.coordinator import Transaction
from ..txn.locks import EXCLUSIVE
from .quorum import QuorumRule, cheapest_quorum
from .suite import FileSuiteClient
from .votes import SuiteConfiguration


def change_configuration(client: FileSuiteClient,
                         new_config: SuiteConfiguration,
                         ) -> Generator[Any, Any, SuiteConfiguration]:
    """Install ``new_config`` on ``client``'s suite.

    Returns the installed configuration (its ``config_version`` is
    forced to ``old + 1``).  Runs in the suite's attempt loop under its
    :attr:`~FileSuiteClient.retry_policy`, so it adopts a newer
    configuration and retries transient failures like any suite write.
    Raises :class:`InvalidConfigurationError` if ``new_config``
    names a different suite.
    """
    if new_config.suite_name != client.config.suite_name:
        raise InvalidConfigurationError(
            f"configuration is for suite {new_config.suite_name!r}, "
            f"client handles {client.config.suite_name!r}")

    outcome, _begun, _adopted = yield from client.manager.transact(
        partial(_reconfigure_once, client, new_config),
        client.retry_policy, client.max_attempts, client._rng)
    old_config, installed, data, new_version, staged = outcome
    # Adopt locally, cover the *new* write quorum, then propagate in the
    # background and clean up removals.
    client.config = installed
    yield from _cover_new_write_quorum(client, installed, staged, data,
                                       new_version)
    _spread_and_cleanup(client, old_config, installed)
    flight = client.flight
    if flight is not None and not flight.closed:
        flight.emit("reconfig", suite=installed.suite_name,
                    config_version=installed.config_version,
                    version=new_version,
                    votes={rep.rep_id: rep.votes
                           for rep in installed.representatives})
    return installed


def _reconfigure_once(client: FileSuiteClient,
                      new_config: SuiteConfiguration, txn: Transaction,
                      ) -> Generator[Any, Any, tuple]:
    """One attempt.  It evolves from the configuration the client holds
    now: after a concurrent reconfiguration won the race and was
    adopted, the change is layered on top of it instead of lost.
    Returns ``(old_config, installed, data, new_version, staged)``."""
    old_config = client.config
    installed = new_config.evolve(
        config_version=old_config.config_version + 1,
        suite_name=old_config.suite_name)
    # 1. Old-configuration write quorum, exclusive.
    gathered, current, _ = yield from client._inquire(
        txn, old_config.write_quorum, mode=EXCLUSIVE, include_weak=False)
    new_version = current + 1

    # 2. Current contents, from a current responder.
    data, _version, _rep = yield from client._fetch(
        txn, QuorumRule.serving(gathered.successes, current), current, {},
        False)

    # 3. Stage at the old write quorum plus all newly added servers.
    properties = {"config": installed.to_json(),
                  "stamp": installed.config_version}
    quorum = cheapest_quorum(list(gathered.successes),
                             old_config.write_quorum)
    old_servers = {rep.server for rep in old_config.representatives}
    targets = {rep.server for rep in quorum}
    new_servers = [rep.server for rep in installed.representatives
                   if rep.server not in old_servers]
    staged = sorted(targets) + new_servers
    calls = [
        txn.call(server, "txn.stage_write", name=old_config.file_name,
                 data=data, version=new_version, properties=properties,
                 create=True, timeout=client.data_timeout)
        for server in staged
    ]
    yield client.sim.all_of(calls)
    return old_config, installed, data, new_version, staged


def _cover_new_write_quorum(client: FileSuiteClient,
                            installed: SuiteConfiguration,
                            staged: list, data: bytes, new_version: int,
                            ) -> Generator[Any, Any, None]:
    """Top the committed copy set up to a *new*-configuration write quorum.

    The reconfiguration transaction commits at an **old**-configuration
    write quorum, which under changed weights may hold fewer than the
    new ``w`` votes — a later read quorum under the new configuration
    could then miss ``new_version`` entirely.  Stage the same contents
    at the cheapest additional voting representatives until the staged
    set carries the new write quorum.  Each extra is a separate
    transaction with ``only_if_newer``, so a concurrent foreground
    write just turns the stage into a no-op; an unreachable extra is
    tolerated (the background refresher remains the backstop) but we
    keep going until the set is covered or no candidates remain.
    """
    staged_servers = set(staged)
    covered = sum(rep.votes for rep in installed.representatives
                  if rep.server in staged_servers)
    if covered >= installed.write_quorum:
        return
    properties = {"config": installed.to_json(),
                  "stamp": installed.config_version}
    extras = sorted(
        (rep for rep in installed.representatives
         if rep.votes > 0 and rep.server not in staged_servers),
        key=lambda rep: (rep.latency_hint, rep.rep_id))
    for rep in extras:
        if covered >= installed.write_quorum:
            break
        txn = client.manager.begin()
        try:
            yield txn.call(
                rep.server, "txn.stage_write",
                name=installed.file_name, data=data,
                version=new_version, properties=properties,
                create=True, only_if_newer=True,
                timeout=client.data_timeout)
            yield from txn.commit()
        except ReproError:
            yield from txn.abort()
            continue
        covered += rep.votes


def _spread_and_cleanup(client: FileSuiteClient,
                        old_config: SuiteConfiguration,
                        installed: SuiteConfiguration) -> None:
    """Post-commit: refresh remaining members, delete removed ones."""
    new_servers = {rep.server for rep in installed.representatives}
    if client.refresher is not None:
        remaining = [rep.rep_id for rep in installed.representatives]
        client.refresher.schedule(client, remaining, 0)
    removed = [rep for rep in old_config.representatives
               if rep.server not in new_servers]
    for rep in removed:
        client.sim.spawn(
            _delete_representative(client, rep.server,
                                   old_config.file_name,
                                   installed.config_version),
            name=f"reconfig-cleanup:{rep.rep_id}")


def _delete_representative(client: FileSuiteClient, server: str,
                           file_name: str, installed_version: int,
                           ) -> Generator[Any, Any, None]:
    """Best-effort delete of a removed representative's copy.

    Must never raise: a crashed or unreachable removed representative
    keeps its (now unreferenced) copy, which can never affect a quorum
    again.  Guards against the re-add race — if a *later*
    reconfiguration brought the server back, its copy carries a
    ``stamp`` at or above that configuration's version and is left
    alone.
    """
    txn = client.manager.begin()
    try:
        stat = yield txn.call(server, "txn.stat", name=file_name,
                              mode=EXCLUSIVE,
                              timeout=client.data_timeout)
        if stat.get("stamp", 0) > installed_version:
            # Re-added by a newer configuration: not ours to delete.
            yield from txn.abort()
            return
        yield txn.call(server, "txn.stage_delete", name=file_name,
                       timeout=client.data_timeout)
        yield from txn.commit()
    except ReproError:
        yield from txn.abort()
