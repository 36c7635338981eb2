#!/usr/bin/env python
"""Audit a country's namespace: how exposed are names under a ccTLD?

Section 3.1 of the paper singles out ccTLDs — Ukraine, Belarus, San Marino,
Malta, Malaysia, Poland, Italy — whose registries delegate to far-flung
off-site secondaries, so every name under them depends on hundreds of
servers scattered around the world (www.rkc.lviv.ua being the worst case).

This example plays the role of a national CERT auditing its own TLD:

* compare the mean TCB of names under the audited ccTLD against com/net;
* list the foreign organisations and regions the TLD transitively trusts;
* count how many of the TLD's names could be completely hijacked today;
* show what happens to resolution if the foreign secondaries become
  unreachable (the availability half of the paper's dilemma), with the
  per-name availability computed by the engine's ``availability`` pass
  during the survey itself.

Run with::

    python examples/cctld_audit.py                      # audits .ua
    python examples/cctld_audit.py --tld by             # another ccTLD

The survey runs on the serial backend; a socket survey runs through
``repro-dns survey --backend socket``, which spawns or connects to its
workers.
"""

from __future__ import annotations

import argparse
import collections

from repro import GeneratorConfig, InternetGenerator, Survey
from repro.cli import ProgressPrinter
from repro.core.report import format_table
from repro.netsim.failures import FailureInjector, FailureScenario
from repro.topology.anecdotes import LVIV_WEB_NAME


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tld", default="ua",
                        help="country-code TLD to audit (default: ua)")
    parser.add_argument("--seed", type=int, default=20040722)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    tld = args.tld.lower()

    print(f"Auditing the .{tld} namespace ...")
    config = GeneratorConfig(seed=args.seed, sld_count=600,
                             directory_name_count=950, university_count=90,
                             hosting_provider_count=20, isp_count=16,
                             alexa_count=150)
    internet = InternetGenerator(config).generate()
    survey = Survey(internet, popular_count=150,
                    passes=("availability:up=0.95",))
    results = survey.run(progress=ProgressPrinter())

    audited = [record for record in results.resolved_records()
               if record.tld == tld]
    if not audited:
        print(f"No surveyed names under .{tld}; try a larger survey or a "
              f"different TLD.")
        return
    baseline = [record for record in results.resolved_records()
                if record.tld in ("com", "net")]

    print(f"\n[1] Exposure of .{tld} names versus com/net")
    mean_audited = sum(r.tcb_size for r in audited) / len(audited)
    mean_baseline = sum(r.tcb_size for r in baseline) / len(baseline)
    rows = [
        (f".{tld} names surveyed", len(audited)),
        (f"mean TCB (.{tld})", f"{mean_audited:.1f}"),
        ("mean TCB (com/net)", f"{mean_baseline:.1f}"),
        ("exposure ratio", f"{mean_audited / mean_baseline:.1f}x"),
        (f"completely hijackable (.{tld})",
         f"{sum(1 for r in audited if r.completely_hijackable)}"),
        (f"with a vulnerable dependency (.{tld})",
         f"{sum(1 for r in audited if r.vulnerable_in_tcb > 0)}"),
    ]
    print(format_table(rows, headers=("metric", "value")))

    print(f"\n[2] Who does .{tld} transitively trust?")
    operators = collections.Counter()
    regions = collections.Counter()
    tcb_union = set()
    for record in audited:
        tcb_union |= record.tcb_servers
    for hostname in tcb_union:
        org = internet.organizations.operator_of(hostname)
        server = internet.server(hostname)
        if org is not None:
            operators[org.kind.value] += 1
        if server is not None:
            regions[server.region] += 1
    def by_count(item):
        return (-item[1], item[0])

    print(format_table(sorted(operators.items(), key=by_count),
                       headers=("operator kind", "servers in closure")))
    print()
    print(format_table(sorted(regions.items(), key=by_count),
                       headers=("region", "servers in closure")))

    worst = max(audited, key=lambda record: record.tcb_size)
    print(f"\n[3] Most exposed name under .{tld}: {worst.name} "
          f"(TCB of {worst.tcb_size} servers, "
          f"{worst.vulnerable_in_tcb} vulnerable)")
    if tld == "ua" and results.record_for(LVIV_WEB_NAME) is not None:
        lviv = results.record_for(LVIV_WEB_NAME)
        print(f"    (the paper's worst case, {LVIV_WEB_NAME}, depends on "
              f"{lviv.tcb_size} servers here)")

    print(f"\n[4] Availability: the other half of the dilemma")
    mean_avail = sum(r.extras["availability"] for r in audited) / len(audited)
    spof_names = sum(1 for r in audited if r.extras["availability_spof"])
    print(f"    mean resolution probability (95% per-server uptime): "
          f"{mean_avail:.4f}")
    print(f"    names with a single point of failure: "
          f"{spof_names}/{len(audited)}")

    foreign = {hostname for hostname in tcb_union
               if (internet.server(hostname) is not None and
                   internet.server(hostname).region not in ("eu",))
               and not hostname.is_subdomain_of(tld)}
    injector = FailureInjector(internet.network)
    injector.apply(FailureScenario(name="foreign-outage",
                                   failed_servers=foreign))
    resolver = internet.make_resolver()
    survivors = 0
    for record in audited[:40]:
        if resolver.resolve(record.name).succeeded:
            survivors += 1
    injector.revert()
    print(f"    with {len(foreign)} foreign servers unreachable, "
          f"{survivors}/{min(40, len(audited))} audited names still resolve")
    print("\nThe dilemma: those foreign secondaries provide availability, "
          "but every one of them is also a place the namespace can be "
          "hijacked from.")


if __name__ == "__main__":
    main()
