"""repro.campaign — declarative, cached, parallel experiment campaigns.

The evidence behind the paper is a cross-product — {shm, vmsplice,
KNEM, KNEM+I/OAT} x message sizes x machines x benchmarks — and this
package runs such cross-products as one engine instead of ad-hoc
scripts:

* :mod:`~repro.campaign.spec` — axes -> trials, each with a canonical
  config and a stable content hash;
* :mod:`~repro.campaign.executor` — the serial reference runner,
  per-trial watchdog timeouts, failure containment;
* :mod:`~repro.campaign.cache` — content-addressed result cache
  (re-running a campaign is 100 % cache hits) over the backends in
  :mod:`~repro.campaign.stores` (directory, sqlite, memory);
* :mod:`~repro.campaign.stats` — replicate aggregation and the
  baseline regression gate;
* :mod:`~repro.campaign.queue` — durable JSONL lease journal whose
  replay rebuilds exact queue state after any kill point;
* :mod:`~repro.campaign.chaos` — seeded worker-kill plans;
* :mod:`~repro.campaign.telemetry` — live fleet status: atomic
  ``status.json`` + Prometheus text exposition rewritten while the
  queue drains.

The crash-tolerant fleet that drives the queue — worker agents, death
detection, requeue, retry budgets, quarantine — is the coordinator in
:mod:`repro.service`, the only parallel runner;
``repro.service.run_supervised`` runs one spec through it and
``repro.service.run_chaos_check`` proves recovery is byte-exact.  No
module here imports :mod:`repro.service`.

CLI: ``repro-bench campaign run|resume|compare|report|chaos``
(``--workers 0``, the default, runs serially; ``--workers N`` routes
run/resume/compare through the coordinator; ``report --fleet`` reads
the telemetry files).
"""

from repro.campaign.cache import ResultCache
from repro.campaign.chaos import KILL_POINTS, ChaosPlan, ChaosState
from repro.campaign.executor import CampaignRun, run_campaign, run_trial
from repro.campaign.queue import Lease, LeaseQueue
from repro.campaign.spec import (
    MACHINES,
    WORKLOADS,
    CampaignSpec,
    Trial,
    canonical_json,
    group_config,
    group_label,
    trial_hash,
)
from repro.campaign.stats import (
    CampaignComparison,
    aggregate,
    compare_campaigns,
)
from repro.campaign.telemetry import (
    FleetTelemetry,
    format_status,
    load_status,
    prometheus_lines,
)

__all__ = [
    "CampaignSpec",
    "Trial",
    "trial_hash",
    "canonical_json",
    "group_config",
    "group_label",
    "WORKLOADS",
    "MACHINES",
    "ResultCache",
    "run_trial",
    "run_campaign",
    "CampaignRun",
    "LeaseQueue",
    "Lease",
    "ChaosPlan",
    "ChaosState",
    "KILL_POINTS",
    "aggregate",
    "compare_campaigns",
    "CampaignComparison",
    "FleetTelemetry",
    "prometheus_lines",
    "load_status",
    "format_status",
]
