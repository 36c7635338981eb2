"""Vulnerability substrate: BIND versions, known exploits, fingerprinting.

The paper combines the delegation graphs with a catalogue of well-documented
BIND vulnerabilities (ISC's BIND security matrix, February 2004) to determine
which nameservers an attacker can compromise with scripted attacks.  This
subpackage provides:

* :class:`~repro.vulns.bindversion.BindVersion` -- parsing and ordering of
  BIND version banners (``"BIND 8.2.4"`` style).
* :class:`~repro.vulns.database.VulnerabilityDatabase` -- the catalogue of
  known vulnerabilities with affected-version ranges, severity, and whether
  the hole allows full compromise or only denial of service.
* :class:`~repro.vulns.fingerprint.Fingerprinter` -- issues ``version.bind``
  CH/TXT queries over the simulated network, mirroring how the survey
  collected version banners.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BindVersion",
    "Vulnerability",
    "VulnerabilityDatabase",
    "Capability",
    "Severity",
    "default_database",
    "Fingerprinter",
    "FingerprintResult",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.vulns.bindversion": ("BindVersion",),
    "repro.vulns.database": (
        "Vulnerability", "VulnerabilityDatabase", "Capability", "Severity",
        "default_database",
    ),
    "repro.vulns.fingerprint": ("Fingerprinter", "FingerprintResult"),
})
