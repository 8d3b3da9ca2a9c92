"""Worker agents: incarnation-tagged lease consumers over the socket.

One loop serves both agent flavors.  The coordinator spawns *local*
agents as forked processes of its own; operators attach *external*
agents with ``repro-bench service worker`` from any shell on the same
host.  Either way the agent speaks the same three-message protocol —
``attach`` (get an incarnation-tagged worker id), ``next`` (pull one
trial), ``report`` (return the record) — and executes trials through
:func:`repro.campaign.executor.run_trial`, which never raises: a
deterministic failure travels back as a ``status: "failed"`` record
and consumes the submission's retry budget, while an agent that *dies*
(SIGKILL, OOM) just drops its socket, which the coordinator treats as
the death notice and requeues for free.  A local agent of a
coordinator running a chaos plan may be told to die with a trial
(``"kill"`` in the dispatch): ``mid-trial`` SIGKILLs it before the
trial runs, ``hang`` sleeps with the socket open until the lease
watchdog kills it.

Agents never touch the result store; the coordinator is its sole
writer.  That keeps the agent a pure function from config to record —
attachable from any process that can reach the socket.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Optional

from repro.campaign.executor import run_trial
from repro.errors import ServiceError
from repro.service.protocol import connect

__all__ = ["agent_loop"]


def agent_loop(
    host: str,
    port: int,
    name: str = "agent",
    *,
    poll: float = 0.05,
    trace_dir: Optional[str] = None,
    max_trials: Optional[int] = None,
    max_wall: Optional[float] = None,
) -> int:
    """Attach to a coordinator and pull trials until told to stop.

    Returns the number of trials executed.  ``max_trials`` /
    ``max_wall`` bound the loop for tests and for batch-style external
    agents.
    """
    ran = 0
    with connect(host, port, timeout=30.0) as conn:
        conn.sock.settimeout(None)  # "next" replies may wait on the coordinator
        t0 = time.time()
        conn.send({"type": "attach", "agent": name})
        hello = conn.recv()
        if hello is None or hello.get("type") != "attached":
            raise ServiceError(f"attach refused: {hello!r}")
        worker_id = hello["worker"]
        while True:
            if max_trials is not None and ran >= max_trials:
                break
            if max_wall is not None and time.time() - t0 > max_wall:
                break
            conn.send({"type": "next", "worker": worker_id})
            msg = conn.recv()
            if msg is None or msg["type"] == "shutdown":
                break
            if msg["type"] == "idle":
                time.sleep(poll)
                continue
            if msg["type"] != "trial":
                raise ServiceError(f"unexpected dispatch reply: {msg!r}")
            if "kill" in msg:
                _die(msg["kill"])
            record = run_trial(msg["config"], trace_dir)
            conn.send({
                "type": "report",
                "worker": worker_id,
                "sub": msg["sub"],
                "hash": msg["hash"],
                "attempt": msg["attempt"],
                "token": msg["token"],
                "record": record,
            })
            ack = conn.recv()
            if ack is None:
                break
            ran += 1
    return ran


def _die(point: str) -> None:
    """Take an injected kill: SIGKILL now, or hang until killed."""
    if point == "hang":
        time.sleep(3600.0)
    os.kill(os.getpid(), signal.SIGKILL)


def _local_agent_main(
    host: str, port: int, name: str, trace_dir: Optional[str], doomed: bool,
) -> None:
    """Process target for coordinator-spawned local agents; a
    ``doomed`` incarnation takes the chaos plan's spawn kill."""
    if doomed:
        _die("spawn")
    try:
        agent_loop(host, port, name, trace_dir=trace_dir)
    except ServiceError:
        # The coordinator went away (shutdown race); nothing to clean
        # up — our leases requeue via the dropped socket.
        pass
