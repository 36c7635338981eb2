#!/usr/bin/env python
"""Quickstart: generate a synthetic Internet, survey it, print the findings.

This walks the full pipeline of the reproduction in ~30 lines of user code:

1. build a synthetic Internet (the stand-in for the July 2004 DNS);
2. run the survey: resolve every directory name, build its delegation graph,
   fingerprint the nameservers, and analyse TCBs / bottlenecks;
3. print the paper's headline statistics and the per-TLD tables.

Run it with::

    python examples/quickstart.py            # default (a couple of minutes)
    python examples/quickstart.py --small    # ~15 seconds

The survey runs through the staged engine facade on the serial backend,
with progress streaming to stderr while it runs.  ``repro-dns survey
--backend socket --workers N`` runs the same survey over N worker
processes, with byte-identical results.
"""

from __future__ import annotations

import argparse

from repro import GeneratorConfig, InternetGenerator, Survey
from repro.cli import ProgressPrinter
from repro.core.report import format_table, sort_groups_descending


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--small", action="store_true",
                        help="use a small topology for a fast demo run")
    parser.add_argument("--seed", type=int, default=20040722,
                        help="RNG seed for the synthetic Internet")
    return parser.parse_args()


def make_config(args: argparse.Namespace) -> GeneratorConfig:
    if args.small:
        return GeneratorConfig(seed=args.seed, sld_count=400,
                               directory_name_count=650,
                               university_count=70, hosting_provider_count=18,
                               isp_count=12, alexa_count=100)
    return GeneratorConfig(seed=args.seed)


def main() -> None:
    args = parse_args()
    config = make_config(args)

    print("Generating the synthetic Internet ...")
    internet = InternetGenerator(config).generate()
    summary = internet.summary()
    print(f"  {summary['servers']} nameservers, {summary['zones']} zones, "
          f"{summary['directory_names']} web-directory names across "
          f"{summary['tlds']} TLDs")

    print("Running the survey (resolve, fingerprint, analyse) ...")
    survey = Survey(internet, popular_count=min(500, len(internet.directory)))
    results = survey.run(progress=ProgressPrinter())

    print("\nHeadline statistics (compare with Section 3 of the paper):")
    headline = results.headline()
    rows = [(key, f"{value:,.3f}") for key, value in sorted(headline.items())]
    print(format_table(rows, headers=("statistic", "value")))

    print("\nMean TCB size per gTLD (Figure 3):")
    gtld = sort_groups_descending(results.mean_tcb_by_tld("gtld"))
    print(format_table([(label, f"{mean:.1f}") for label, mean in gtld],
                       headers=("gTLD", "mean TCB")))

    print("\nMean TCB size for the worst ccTLDs (Figure 4):")
    cctld = sort_groups_descending(results.mean_tcb_by_tld("cctld"))[:15]
    print(format_table([(label, f"{mean:.1f}") for label, mean in cctld],
                       headers=("ccTLD", "mean TCB")))

    print("\nMost valuable nameservers (Figure 8):")
    ranking = results.server_value_ranking()[:10]
    print(format_table(
        [(value.rank, str(value.hostname), value.names_controlled,
          "yes" if value.vulnerable else "no") for value in ranking],
        headers=("rank", "nameserver", "names controlled", "vulnerable")))

    hijackable = results.fraction_completely_hijackable()
    print(f"\n{hijackable:.0%} of surveyed names can be *completely* hijacked "
          f"by compromising only servers with well-documented BIND holes "
          f"(paper: ~30%).")


if __name__ == "__main__":
    main()
