"""Seeded synthetic corpora and tool outputs for the pipeline benchmark.

Standard library only, and independent of the package under test: values
are built with their own checksum encoders, defanged with plain string
rewrites, and canonicalised by ``canon`` below, so the planted truth is
never produced by the code it checks.

Three workloads share one value forge:

* ``reports-sparse``: long prose reports, few indicators of 7 common types;
* ``appendix-dense``: IOC appendices, one indicator (or decoy) per line,
  every type in every document, duplicates included;
* ``feeds-html``: small tag-dense HTML feed items from 35 origins, planted
  so that each of the five blocklist rules fires.
"""
from __future__ import annotations

import hashlib
import html
import ipaddress
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("reports-sparse", "appendix-dense", "feeds-html")

ALL_TYPES = (
    "ip4", "ip4cidr", "ip6", "fqdn", "url", "email", "md5", "sha1", "sha256",
    "sha512", "ssdeep", "cve", "asn", "bitcoin", "ethereum", "monero",
    "onionAddress", "iban", "macAddress", "regkey", "googleAdsense",
    "googleAnalytics",
)
COMMON_TYPES = ("fqdn", "url", "ip4", "md5", "sha256", "cve", "email")
# Sizes keep each command near one second, so a 35-second run holds several
# cycles; reports and appendices keep the per-document shape the workloads
# are about.
REPORT_DOCS, REPORT_BYTES = 200, 5_000
APPENDIX_DOCS, APPENDIX_LINES = 200, 100
#: Every origin has exactly this many feed items: rule 2 (>= 20 documents of
#: one origin) can fire, while a value in all but one item of every origin
#: stays below it and still exceeds rule 4's 90% of documents.
FEED_DOCS_PER_ORIGIN = 20
FEED_TEXT_BYTES = 600

RULES = ("origin_domain", "frequent_per_origin", "popular_domain", "ubiquitous", "private_ip")

#: Types whose canonical value is lowercase (mirrors the documented contract).
_LOWER = frozenset({"md5", "sha1", "sha256", "sha512", "ssdeep", "regkey", "ip6", "fqdn", "email"})
#: All present in the shipped TLD snapshot.
_TLDS = ("com", "net", "org", "io", "info", "biz", "xyz", "de", "fr", "ru", "cn", "jp", "nl", "top")
#: None present in the shipped TLD snapshot.
_BAD_TLDS = ("zzq", "qzx", "invalidtld", "notarealtld")
_B58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789/+"
_LOWER_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"
_IBAN_LAYOUTS = {
    "GB": ((4, "A"), (14, "9")), "DE": ((18, "9"),), "NL": ((4, "A"), (10, "9")),
    "FR": ((10, "9"), (11, "X"), (2, "9")), "ES": ((20, "9"),), "BE": ((12, "9"),),
}
_IBAN_ALPHABETS = {"9": "0123456789", "A": "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
                   "X": "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"}
_REG_PARTS = ("Software", "Microsoft", "Windows", "CurrentVersion", "Run", "Services",
              "Parameters", "Winlogon", "Policies", "Explorer", "Classes", "Shell")
_WORDS = (
    "the", "actor", "campaign", "observed", "loader", "payload", "beacon", "infrastructure",
    "operators", "deployed", "second", "stage", "implant", "which", "contacts", "server",
    "victims", "sector", "researchers", "analysis", "sample", "persistence", "through",
    "scheduled", "task", "credential", "theft", "lateral", "movement", "network", "traffic",
    "encrypted", "channel", "phishing", "lure", "document", "macro", "dropper", "registry",
    "exfiltration", "staging", "cluster", "overlaps", "previous", "activity", "attributed",
    "group", "targets", "government", "energy", "finance", "telemetry", "shows", "spike",
    "in", "of", "and", "to", "a", "with", "from", "after", "during", "while", "their",
)
_VENDORS = (
    "talosintel", "unit42lab", "securelst", "welivesec", "mandiantx", "proofpt", "sentinelo",
    "crowdstrk", "recordedf", "checkpnt", "trendmic", "sophosnews", "eset-research",
    "kasplab", "fortiguardx", "zscalerthreat", "malwarebyt", "bleepingc", "thehackernw",
    "darkreadng", "krebsonsec", "threatpostx", "cisa-alerts", "ncsc-feed", "certeu-feed",
)
_HANDLES = ("malwrhunter", "vxunderground", "campuscodi", "jaimeblasco", "cyb3rops",
            "gossithedog", "x0rz", "bushidotoken", "ochsenmeier", "dodo_sec")


def _sha256d(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def _b58check(payload: bytes) -> str:
    data = payload + _sha256d(payload)[:4]
    n = int.from_bytes(data, "big")
    out = ""
    while n:
        n, r = divmod(n, 58)
        out = _B58[r] + out
    return "1" * (len(data) - len(data.lstrip(b"\0"))) + out


def _mod97(text: str) -> int:
    rem = 0
    for ch in text:
        for digit in (ch if ch.isdigit() else str(ord(ch) - 55)):
            rem = (rem * 10 + int(digit)) % 97
    return rem


def canon(ind_type: str, value: str) -> str:
    """Canonical (normalized) form of an armed value, per the README contract."""
    if ind_type in _LOWER:
        return value.lower()
    if ind_type == "asn":
        return "AS" + value.lstrip("ASNasn")
    if ind_type == "cve":
        return "CVE-" + value[4:]
    return value


class Forge:
    """Armed values of every type, decoys that fail validation, and defanged renderings."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def _label(self, lo: int = 3, hi: int = 10) -> str:
        rng = self.rng
        return rng.choice("abcdefghijklmnopqrstuvwxyz") + "".join(
            rng.choices(_LOWER_ALNUM, k=rng.randint(lo, hi) - 1))

    def _hex(self, n: int) -> str:
        return f"{self.rng.getrandbits(4 * n):0{n}x}"

    def _ip4_public(self) -> str:
        rng = self.rng
        while True:
            addr = ipaddress.IPv4Address(rng.getrandbits(32))
            if addr.is_global:
                return str(addr)

    def value(self, t: str) -> str:
        rng = self.rng
        if t == "fqdn":
            return ".".join([self._label() for _ in range(rng.randint(1, 3))] + [rng.choice(_TLDS)])
        if t == "url":
            path = "/".join(self._label(2, 8) for _ in range(rng.randint(1, 3)))
            query = f"?{self._label(1, 4)}={self._label(2, 8)}" if rng.random() < 0.3 else ""
            return f"{rng.choice(('http', 'https'))}://{self.value('fqdn')}/{path}{query}"
        if t == "email":
            local = self._label(2, 8) + ("." + self._label(2, 6) if rng.random() < 0.4 else "")
            return f"{local}@{self.value('fqdn')}"
        if t == "ip4":
            return self._ip4_public()
        if t == "ip4cidr":
            return f"{self._ip4_public()}/{rng.randint(8, 32)}"
        if t == "ip6":
            return ipaddress.IPv6Address((0x2001 << 112) | rng.getrandbits(112)).exploded
        if t in ("md5", "sha1", "sha256", "sha512"):
            return self._hex({"md5": 32, "sha1": 40, "sha256": 64, "sha512": 128}[t])
        if t == "ssdeep":
            chunk = lambda lo, hi: "".join(rng.choices(_B64, k=rng.randint(lo, hi)))  # noqa: E731
            return f"{3 * 2 ** rng.randint(0, 12)}:{chunk(20, 40)}:{chunk(8, 20)}"
        if t == "cve":
            return f"CVE-{rng.randint(2005, 2026)}-{rng.randint(1000, 99999)}"
        if t == "asn":
            return f"AS{rng.randint(1, 400000)}"
        if t == "bitcoin":
            return _b58check(bytes([rng.choice((0, 5))]) + rng.randbytes(20))
        if t == "ethereum":
            return "0x" + self._hex(40)
        if t == "monero":
            return "4" + "".join(rng.choices(_B58, k=94))
        if t == "onionAddress":
            return "".join(rng.choices("abcdefghijklmnopqrstuvwxyz234567", k=rng.choice((16, 56)))) + ".onion"
        if t == "iban":
            country = rng.choice(sorted(_IBAN_LAYOUTS))
            bban = "".join("".join(rng.choices(_IBAN_ALPHABETS[kind], k=n))
                           for n, kind in _IBAN_LAYOUTS[country])
            return f"{country}{98 - _mod97(bban + country + '00'):02d}{bban}"
        if t == "macAddress":
            return rng.choice(":-").join(self._hex(2).upper() for _ in range(6))
        if t == "regkey":
            hive = rng.choice(("HKLM", "HKCU", "HKEY_LOCAL_MACHINE", "HKEY_CURRENT_USER"))
            return hive + "\\" + "\\".join(rng.sample(_REG_PARTS, rng.randint(2, 5)))
        if t == "googleAdsense":
            return rng.choice(("ca-pub-", "pub-")) + "".join(rng.choices("0123456789", k=16))
        if t == "googleAnalytics":
            return f"UA-{rng.randint(10000, 9999999)}-{rng.randint(1, 20)}"
        raise ValueError(t)

    def decoy(self, t: str) -> str:
        """A value shaped like type ``t`` that validation must reject."""
        rng = self.rng
        if t in ("fqdn", "url", "email"):
            value = self.value(t)
            host = value.split("://")[-1].split("/")[0].split("@")[-1]
            bad = host.rsplit(".", 1)[0] + "." + rng.choice(_BAD_TLDS)
            return value.replace(host, bad, 1)
        if t == "ip4":
            parts = self._ip4_public().split(".")
            parts[rng.randrange(1, 4)] = str(rng.randint(256, 999))
            return ".".join(parts)
        if t == "bitcoin":
            value = self.value("bitcoin")
            i = rng.randrange(1, len(value))
            return value[:i] + rng.choice(_B58.replace(value[i], "")) + value[i + 1:]
        if t == "iban":
            value = self.value("iban")
            check = (int(value[2:4]) + rng.randint(1, 90)) % 97
            return f"{value[:2]}{check:02d}{value[4:]}"
        raise ValueError(t)

    def render(self, t: str, value: str, defang_p: float) -> str:
        """The text form of an armed value: defanged with probability ``defang_p``
        where the type has defang forms, and in a non-canonical case or prefix
        for some types so normalization has work to do."""
        rng = self.rng
        if t in ("md5", "sha1", "sha256") and rng.random() < 0.2:
            return value.upper()
        if t == "asn" and rng.random() < 0.3:
            return rng.choice(("ASN", "as")) + value[2:]
        if t == "cve" and rng.random() < 0.2:
            return "cve" + value[3:]
        if t not in ("fqdn", "ip4", "email", "url") or rng.random() >= defang_p:
            return value
        dot = rng.choice(("[.]", "(.)", "[dot]", "(dot)"))
        if t == "url":
            scheme, rest = value.split("://", 1)
            host, _, path = rest.partition("/")
            scheme = scheme.replace("tt", "xx") if rng.random() < 0.5 else scheme
            sep = "[:]//" if rng.random() < 0.3 else "://"
            return f"{scheme}{sep}{host.replace('.', '[.]')}/{path}"
        if t == "email":
            local, _, domain = value.rpartition("@")
            at = rng.choice(("@", "[at]", "(at)", "_at_"))
            return f"{local}{at}{domain.replace('.', dot) if at == '@' or rng.random() < 0.5 else domain}"
        return value.replace(".", dot)


@dataclass
class Corpus:
    """A generated corpus on disk plus what the generator planted in it."""

    workload: str
    manifest: Path
    docs: list[tuple[str, Path, str, str]] = field(default_factory=list)  # id, path, origin, fmt
    truth: set[tuple[str, str, str]] = field(default_factory=set)  # doc_id, type, canonical value
    decoys: set[tuple[str, str, str]] = field(default_factory=set)
    planted_hits: dict[str, int] = field(default_factory=dict)  # rule -> planted (doc, indicator)
    nbytes: int = 0
    sha256: str = ""


def _prose(rng: random.Random, nwords: int) -> str:
    words = rng.choices(_WORDS, k=nwords)
    out, i = [], 0
    while i < len(words):
        n = rng.randint(8, 20)
        sentence = words[i:i + n]
        out.append(sentence[0].capitalize() + " " + " ".join(sentence[1:]) + ".")
        i += n
    return " ".join(out)


def _report(forge: Forge, nbytes: int, doc_truth, doc_decoys) -> str:
    """A prose report of about ``nbytes`` with one indicator per ~1.5 KB."""
    rng = forge.rng
    paragraphs, size = [], 0
    while size < nbytes:
        para = _prose(rng, rng.randint(90, 200))
        words = para.split(" ")
        for _ in range(max(1, round(len(para) / 1500 * rng.uniform(0.6, 1.4)))):
            at = rng.randrange(1, len(words))
            if rng.random() < 0.05:
                t = rng.choice(("fqdn", "url", "email", "ip4"))
                value = forge.decoy(t)
                doc_decoys.add((t, canon(t, value)))
                words.insert(at, value)
            else:
                t = rng.choice(COMMON_TYPES)
                value = forge.value(t)
                doc_truth.add((t, canon(t, value)))
                words.insert(at, forge.render(t, value, 0.4))
        para = " ".join(words)
        paragraphs.append(para)
        size += len(para) + 2
    return "\n\n".join(paragraphs) + "\n"


_LABELS = {
    "ip4": "C2 address", "ip4cidr": "Network block", "ip6": "IPv6 host", "fqdn": "Domain",
    "url": "Download URL", "email": "Sender", "md5": "MD5", "sha1": "SHA1", "sha256": "SHA256",
    "sha512": "SHA512", "ssdeep": "Fuzzy hash", "cve": "Exploited", "asn": "Hosting",
    "bitcoin": "Ransom wallet", "ethereum": "ETH wallet", "monero": "XMR wallet",
    "onionAddress": "Leak site", "iban": "Mule account", "macAddress": "Device",
    "regkey": "Persistence key", "googleAdsense": "Adsense", "googleAnalytics": "Tracker",
}
_DECOY_TYPES = ("fqdn", "url", "email", "ip4", "bitcoin", "iban")


def _appendix(forge: Forge, nlines: int, doc_truth, doc_decoys) -> str:
    """An IOC appendix: one indicator per line, every type present, ~10%
    decoy lines, and some values repeated (in another rendering)."""
    rng = forge.rng
    types = list(ALL_TYPES) + rng.choices(ALL_TYPES, k=nlines - len(ALL_TYPES))
    rng.shuffle(types)
    lines = [f"Appendix {rng.randint(1, 9)}: indicators of compromise", ""]
    seen: list[tuple[str, str]] = []
    for t in types:
        roll = rng.random()
        if roll < 0.10:
            dt = rng.choice(_DECOY_TYPES)
            value = forge.decoy(dt)
            doc_decoys.add((dt, canon(dt, value)))
            lines.append(f"{_LABELS[dt]}: {value}")
            continue
        if roll < 0.18 and seen:
            t, value = rng.choice(seen)
        else:
            value = forge.value(t)
            seen.append((t, value))
        doc_truth.add((t, canon(t, value)))
        lines.append(f"{_LABELS[t]}: {forge.render(t, value, 0.4)}")
    return "\n".join(lines) + "\n"


def _markup(rng: random.Random, text: str) -> str:
    """Wrap one visible-text fragment in inline markup; the spaces around it
    keep indicators from fusing with neighbouring text nodes."""
    depth = rng.randint(1, 3)
    opening = "".join(f'<span class="c{rng.randint(1, 99)}" data-k="{rng.getrandbits(24):x}">'
                      for _ in range(depth))
    return f" {opening}{html.escape(text, quote=False)}{'</span>' * depth} "


def _feed_item(forge: Forge, title: str, fragments: list[str], text_bytes: int) -> str:
    """One tag-dense HTML feed item carrying ``fragments`` in its visible text."""
    rng = forge.rng
    pieces, size = [], 0
    fragments = list(fragments)
    while size < text_bytes or fragments:
        sentence = _prose(rng, rng.randint(6, 14))
        size += len(sentence)
        body = _markup(rng, sentence)
        if fragments:
            body += _markup(rng, fragments.pop())
        pieces.append(f'<p class="entry-p">{body}</p>')
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>" + title + "</title>"
        "<style>.entry-p{margin:0}.c1{color:#333}</style>"
        "<script>window.dataLayer=window.dataLayer||[];</script></head><body>"
        f'<div class="feed"><article class="item" id="i{rng.getrandbits(32):x}">'
        f"<h2>{title}</h2><div class=\"entry\">" + "\n".join(pieces)
        + "</div></article></div><footer><nav><ul><li><a href=\"/\">Home</a></li>"
        "<li><a href=\"/feed\">Feed</a></li></ul></nav></footer></body></html>\n"
    )


def _snapshot_domains(src: Path, count: int) -> list[str]:
    lines = (src / "iockit" / "data" / "tranco_snapshot.csv").read_text(encoding="utf-8").split()
    domains = [line.split(",", 1)[1] for line in lines if "," in line]
    return [d for d in domains if d.count(".") == 1 and d.rsplit(".", 1)[1] in _TLDS][:count]


def _write_doc(corpus: Corpus, directory: Path, data: str, origin: str, fmt: str) -> str:
    raw = data.encode("utf-8")
    doc_id = hashlib.sha256(raw).hexdigest()
    path = directory / f"{doc_id[:16]}.{'html' if fmt == 'html' else 'txt'}"
    path.write_bytes(raw)
    corpus.docs.append((doc_id, path, origin, fmt))
    corpus.nbytes += len(raw)
    return doc_id


def build(workload: str, seed: int, dest: Path, src: Path) -> Corpus:
    """Generate ``workload``'s corpus for ``seed`` under ``dest`` and return it.

    ``src`` is the package source tree, read only for the shipped popularity
    snapshot.
    """
    rng = random.Random(f"{workload}/{seed}")
    forge = Forge(rng)
    docs_dir = dest / "docs"
    docs_dir.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(workload, dest / "manifest.tsv")
    planted: list[tuple[str, set, set]] = []  # (doc_id, truth, decoys)

    if workload == "reports-sparse":
        for _ in range(REPORT_DOCS):
            truth, decoys = set(), set()
            text = _report(forge, int(REPORT_BYTES * rng.uniform(0.8, 1.2)), truth, decoys)
            origin = f"rss:{rng.choice(_VENDORS)}.com"
            planted.append((_write_doc(corpus, docs_dir, text, origin, "text"), truth, decoys))
    elif workload == "appendix-dense":
        for _ in range(APPENDIX_DOCS):
            truth, decoys = set(), set()
            text = _appendix(forge, rng.randint(APPENDIX_LINES - 20, APPENDIX_LINES + 20), truth, decoys)
            origin = f"rss:{rng.choice(_VENDORS)}.com"
            planted.append((_write_doc(corpus, docs_dir, text, origin, "text"), truth, decoys))
    elif workload == "feeds-html":
        planted = _feeds(corpus, forge, docs_dir, src)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    for doc_id, truth, decoys in planted:
        corpus.truth |= {(doc_id, t, v) for t, v in truth}
        corpus.decoys |= {(doc_id, t, v) for t, v in decoys}
    corpus.manifest.write_text(
        "".join(f"{d}\t{p.relative_to(dest)}\t{o}\t{f}\n" for d, p, o, f in corpus.docs),
        encoding="utf-8",
    )
    # Each manifest line names its document's SHA-256, so this covers every byte.
    corpus.sha256 = hashlib.sha256(corpus.manifest.read_bytes()).hexdigest()
    return corpus


def _feeds(corpus: Corpus, forge: Forge, docs_dir: Path, src: Path):
    """Feed items planted so that each blocklist rule fires; records in
    ``corpus.planted_hits`` how many (document, indicator) pairs each rule
    must at least catch."""
    rng = forge.rng
    origins = [f"rss:{v}.com" for v in _VENDORS] + [f"twitter:{h}" for h in _HANDLES]
    popular = _snapshot_domains(src, 60)
    ubiquitous = forge._ip4_public()
    signature = {o: forge.value("googleAnalytics") for o in origins}
    hits = dict.fromkeys(RULES, 0)
    slots = [(o, i) for o in origins for i in range(FEED_DOCS_PER_ORIGIN)]
    rng.shuffle(slots)
    lacks_ubiquitous = {o: rng.randrange(FEED_DOCS_PER_ORIGIN) for o in origins}
    planted = []
    for origin, slot in slots:
        truth, fragments = set(), []

        def plant(t, value, rule=None):
            if (t, canon(t, value)) not in truth and rule:
                hits[rule] += 1
            truth.add((t, canon(t, value)))
            fragments.append(forge.render(t, value, 0.4))

        plant("googleAnalytics", signature[origin], "frequent_per_origin")
        if slot != lacks_ubiquitous[origin]:
            plant("ip4", ubiquitous, "ubiquitous")
        if origin.startswith("rss:") and rng.random() < 0.6:
            host = "www." + origin[4:]
            plant("url", f"https://{host}/{forge._label(4, 9)}/{forge._label(4, 12)}", "origin_domain")
        for _ in range(rng.randint(1, 2)):
            domain = popular[rng.randrange(len(popular))]
            if rng.random() < 0.5:
                plant("url", f"https://www.{domain}/{forge._label(3, 10)}", "popular_domain")
            else:
                plant("fqdn", f"{forge._label(3, 8)}.{domain}", "popular_domain")
        if rng.random() < 0.4:
            net = rng.choice(("10.{}.{}.{}", "192.168.{}.{}", "172.{}.{}.{}"))
            octets = [rng.randint(16, 31)] if net.startswith("172") else []
            octets += [rng.randint(0, 255) for _ in range(net.count("{}") - len(octets))]
            plant("ip4", net.format(*octets), "private_ip")
        for _ in range(rng.randint(2, 5)):
            plant(t := rng.choice(ALL_TYPES), forge.value(t))
        title = f"{rng.choice(_WORDS).capitalize()} {rng.choice(_WORDS)} update {rng.randint(1, 999)}"
        page = _feed_item(forge, title, fragments, int(FEED_TEXT_BYTES * rng.uniform(0.8, 1.2)))
        planted.append((_write_doc(corpus, docs_dir, page, origin, "html"), truth, set()))
    corpus.planted_hits = hits
    return planted


# ---------------------------------------------------------------------------
# tool outputs for `compare`

#: Two synthetic tools built from the planted truth: (name, supported types,
#: alias spellings they write, drop share, add share, error share).
SYNTHETIC_TOOLS = (
    ("synth-a", ("ip4", "fqdn", "url", "email", "md5", "sha1", "sha256", "cve"),
     {"ip4": "ipv4addr", "fqdn": "domain", "sha256": "sha-256"}, 0.10, 0.05, 0.01),
    ("synth-b", ("ip4", "ip6", "fqdn", "url", "md5", "sha256", "sha512", "bitcoin",
                 "ethereum", "asn", "cve", "regkey"),
     {"ip4": "IPv4", "url": "uri", "bitcoin": "btc", "regkey": "registry_key"}, 0.15, 0.08, 0.02),
)


def synthetic_lines(corpus: Corpus, seed: int) -> dict[str, list[str]]:
    """JSON lines of the two synthetic tools, keyed by tool name."""
    by_doc: dict[str, list[tuple[str, str]]] = {}
    for doc_id, t, v in sorted(corpus.truth):
        by_doc.setdefault(doc_id, []).append((t, v))
    out = {}
    for name, types, aliases, drop, add, error in SYNTHETIC_TOOLS:
        rng = random.Random(f"{corpus.workload}/{seed}/{name}")
        forge = Forge(rng)
        lines = []
        for doc_id, _path, _origin, _fmt in corpus.docs:
            if rng.random() < error:
                lines.append(json.dumps({"tool": name, "doc_id": doc_id, "error": "timeout"}))
                continue
            found = [(t, v) for t, v in by_doc.get(doc_id, ()) if t in types and rng.random() >= drop]
            found += [(t, forge.value(t)) for t in types if rng.random() < add]
            for t, v in found:
                if t == "url" and v.startswith("http://"):
                    v = v[len("http://"):]
                lines.append(json.dumps({"tool": name, "doc_id": doc_id,
                                         "type": aliases.get(t, t), "value": v}))
        out[name] = lines
    return out


def synthetic_profiles() -> dict[str, list[str]]:
    return {name: list(types) for name, types, *_ in SYNTHETIC_TOOLS}
