"""Export codecs: JSON snapshots and delegation-graph visualisations.

Two families live here, both *interop boundaries* rather than hot paths:

**Survey-results JSON.**  The original snapshot format — a self-describing
JSON document mirroring :meth:`NameRecord.to_dict` — now demoted to an
export/interop codec: the performance path is the binary REPRO-SNAP store
(:mod:`repro.core.snapstore`), while JSON remains the golden format the
byte-identity tests compare everything against and the form external
tooling can read.  :func:`save_results_json` optionally zlib-compresses
(stdlib only), and :func:`results_from_dict` decodes a parsed document.
Files are read back through the format-sniffing
:func:`repro.core.snapshot.load_results`, which decompresses
transparently; most callers should also write through
:func:`repro.core.snapshot.save_results`.

**Delegation-graph drawings.**  Figure 1 of the paper is a drawing of
www.cs.cornell.edu's delegation graph; :func:`to_ascii_tree`,
:func:`to_dot`, and :func:`to_graphml` render the same structure for any
name (networkx is imported lazily — only :func:`to_graphml` needs it — and
so is :mod:`repro.core.delegation`, which the JSON codec never touches).
"""

from __future__ import annotations

import json
import pathlib
import zlib
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set, Union

from repro.dns.name import DomainName
from repro.core.atomic import atomic_write_bytes, atomic_write_text
from repro.core.survey import NameRecord, SurveyResults
from repro.vulns.bindversion import BindVersion, FingerprintResult

if TYPE_CHECKING:
    from repro.core.delegation import DelegationGraph

PathLike = Union[str, pathlib.Path]

#: Format version written into every JSON snapshot.
SNAPSHOT_FORMAT_VERSION = 1


# -- survey-results JSON codec ---------------------------------------------------------


def results_to_dict(results: SurveyResults) -> Dict[str, object]:
    """Convert survey results to a JSON-serialisable dictionary."""
    return {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "metadata": dict(results.metadata),
        "records": [record.to_dict() for record in results.records],
        "server_names_controlled": {
            str(host): count
            for host, count in results.server_names_controlled.items()},
        "vulnerable_servers": sorted(str(host)
                                     for host in results.vulnerable_servers),
        "compromisable_servers": sorted(
            str(host) for host in results.compromisable_servers),
        "popular_names": sorted(str(name) for name in results.popular_names),
        "fingerprints": {
            str(host): {
                "banner": result.banner,
                "reachable": result.reachable,
                "vulnerabilities": list(result.vulnerabilities),
            }
            for host, result in results.fingerprints.items()},
    }


def results_from_dict(payload: Dict[str, object]) -> SurveyResults:
    """Rebuild survey results from a dictionary produced by
    :func:`results_to_dict`."""
    version = payload.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot format version: {version!r}")

    records = []
    for raw in payload.get("records", []):
        records.append(NameRecord(
            name=DomainName(raw["name"]),
            tld=raw["tld"],
            category=raw["category"],
            is_popular=bool(raw["is_popular"]),
            resolved=bool(raw["resolved"]),
            tcb_size=int(raw["tcb_size"]),
            in_bailiwick=int(raw["in_bailiwick"]),
            vulnerable_in_tcb=int(raw["vulnerable_in_tcb"]),
            compromisable_in_tcb=int(raw["compromisable_in_tcb"]),
            safety_percentage=float(raw["safety_percentage"]),
            mincut_size=int(raw["mincut_size"]),
            mincut_safe=int(raw["mincut_safe"]),
            mincut_vulnerable=int(raw["mincut_vulnerable"]),
            classification=raw["classification"],
            tcb_servers=frozenset(DomainName(s)
                                  for s in raw.get("tcb_servers", [])),
            mincut_servers=frozenset(DomainName(s)
                                     for s in raw.get("mincut_servers", [])),
            extras=dict(raw.get("extras", {})),
        ))

    fingerprints = {}
    for host_text, raw in payload.get("fingerprints", {}).items():
        hostname = DomainName(host_text)
        banner = raw.get("banner")
        fingerprints[hostname] = FingerprintResult(
            hostname=hostname, banner=banner,
            version=BindVersion.parse(banner),
            reachable=bool(raw.get("reachable", True)),
            vulnerabilities=list(raw.get("vulnerabilities", [])))

    return SurveyResults(
        records=records,
        server_names_controlled={
            DomainName(host): int(count)
            for host, count in payload.get("server_names_controlled",
                                           {}).items()},
        vulnerable_servers={DomainName(host)
                            for host in payload.get("vulnerable_servers", [])},
        compromisable_servers={
            DomainName(host)
            for host in payload.get("compromisable_servers", [])},
        fingerprints=fingerprints,
        popular_names={DomainName(name)
                       for name in payload.get("popular_names", [])},
        metadata=dict(payload.get("metadata", {})),
    )


def _is_zlib_header(head: bytes) -> bool:
    """True when ``head`` starts a zlib stream (RFC 1950 CMF/FLG pair)."""
    return (len(head) >= 2 and head[0] == 0x78
            and head[1] in (0x01, 0x5E, 0x9C, 0xDA))


def save_results_json(results: SurveyResults, path: PathLike,
                      indent: int = 0, compress: bool = False
                      ) -> pathlib.Path:
    """Write survey results to ``path`` as JSON; returns the path written.

    ``compress=True`` wraps the document in a stdlib zlib stream —
    :func:`repro.core.snapshot.load_results` detects the two-byte zlib
    header and decompresses transparently, so compressed and plain
    snapshots are interchangeable everywhere a path is accepted.

    Both forms commit through :mod:`repro.core.atomic`: an existing
    snapshot is only ever replaced by a complete new one.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = results_to_dict(results)
    text = json.dumps(payload, indent=indent or None, sort_keys=True)
    if compress:
        atomic_write_bytes(path, zlib.compress(text.encode("utf-8"),
                                               level=6))
    else:
        atomic_write_text(path, text)
    return path


# -- delegation-graph drawings ---------------------------------------------------------


def _label(node) -> str:
    return str(node[1])


def to_ascii_tree(graph: DelegationGraph,
                  vulnerability_map: Optional[Mapping[DomainName, bool]] = None,
                  max_depth: int = 12) -> str:
    """Render the delegation graph as an indented dependency tree.

    Each node is printed once; dependencies that were already expanded
    elsewhere are marked with ``(see above)`` so cycles and shared
    sub-structures do not repeat.
    """
    from repro.core.delegation import NAME_KIND, NS_KIND, ZONE_KIND, name_node

    vulnerability_map = vulnerability_map or {}
    lines: List[str] = []
    expanded: Set = set()

    def render(node, depth: int) -> None:
        indent = "  " * depth
        kind, entity = node
        suffix = ""
        if kind == NS_KIND and vulnerability_map.get(entity, False):
            suffix = "  [VULNERABLE]"
        tag = {NAME_KIND: "name", ZONE_KIND: "zone", NS_KIND: "ns"}[kind]
        if node in expanded:
            lines.append(f"{indent}{tag} {entity} (see above)")
            return
        lines.append(f"{indent}{tag} {entity}{suffix}")
        expanded.add(node)
        if depth >= max_depth:
            return
        for successor in sorted(graph.graph.successors(node),
                                key=lambda n: (n[0], str(n[1]))):
            render(successor, depth + 1)

    render(name_node(graph.target), 0)
    return "\n".join(lines)


def to_dot(graph: DelegationGraph,
           vulnerability_map: Optional[Mapping[DomainName, bool]] = None
           ) -> str:
    """Render the delegation graph as Graphviz DOT text."""
    from repro.core.delegation import NAME_KIND, ZONE_KIND

    vulnerability_map = vulnerability_map or {}
    lines = ["digraph delegation {", "  rankdir=LR;",
             '  node [fontsize=10];']
    for node in graph.graph.nodes:
        kind, entity = node
        attributes: Dict[str, str] = {"label": str(entity)}
        if kind == ZONE_KIND:
            attributes["shape"] = "box"
        elif kind == NAME_KIND:
            attributes["shape"] = "doubleoctagon"
        else:
            attributes["shape"] = "ellipse"
            if vulnerability_map.get(entity, False):
                attributes["style"] = "filled"
                attributes["fillcolor"] = "lightcoral"
        rendered = ", ".join(f'{key}="{value}"'
                             for key, value in attributes.items())
        lines.append(f'  "{kind}:{entity}" [{rendered}];')
    for source, destination in graph.graph.edges:
        lines.append(f'  "{source[0]}:{source[1]}" -> '
                     f'"{destination[0]}:{destination[1]}";')
    lines.append("}")
    return "\n".join(lines)


def to_graphml(graph: DelegationGraph, path: PathLike) -> pathlib.Path:
    """Write the graph as GraphML; returns the path written."""
    import networkx as nx

    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    exportable = nx.DiGraph()
    for node in graph.graph.nodes:
        exportable.add_node(f"{node[0]}:{node[1]}", kind=node[0],
                            label=str(node[1]))
    for source, destination in graph.graph.edges:
        exportable.add_edge(f"{source[0]}:{source[1]}",
                            f"{destination[0]}:{destination[1]}")
    nx.write_graphml(exportable, path)
    return path


def write_dot(graph: DelegationGraph, path: PathLike,
              vulnerability_map: Optional[Mapping[DomainName, bool]] = None
              ) -> pathlib.Path:
    """Write DOT text to ``path``; returns the path written."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_dot(graph, vulnerability_map), encoding="utf-8")
    return path
