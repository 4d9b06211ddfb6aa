"""Regenerate the ``validate`` workload's inputs, and read them back.

The fixture holds every record kept by one ``validate=False`` fuzzing
pass per target (seed 7, 30 campaigns): all constructor fields plus the
record's crash image, zlib-compressed and base64-encoded.  Each record
also carries its pinned verdict, taken from one cold-cache validation at
generation time, and the catalogued bugs it matches.  The
benchmark replays these records many times and checks every verdict
against the pin, so the inputs must never change silently: this script
is the only way to rewrite them.

Usage (from the repository root)::

    python3 pmbench/make_fixture.py
"""

import base64
import json
import os
import sys
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "validate_records.json")
TARGETS = ("P-CLHT", "txkv")
SEED = 7
CAMPAIGNS = 30


def _encode_image(image):
    return base64.b64encode(zlib.compress(image, 9)).decode("ascii")


def _decode_image(text):
    return zlib.decompress(base64.b64decode(text))


def record_to_doc(target, record):
    """Plain-JSON form of one inconsistency record."""
    doc = {"target": target, "kind": record.kind,
           "image": _encode_image(record.crash_image),
           "verdict": record.verdict.value, "stack": list(record.stack)}
    if record.kind == "sync":
        new_value = record.new_value
        doc.update(annotation_name=record.annotation_name, addr=record.addr,
                   size=record.size, init_val=record.init_val,
                   new_value=(new_value.hex() if isinstance(
                       new_value, (bytes, bytearray)) else int(new_value)),
                   instr_id=record.instr_id)
    else:
        cand = record.candidate
        doc.update(candidate={
            "candidate_id": cand.candidate_id, "addr": cand.addr,
            "size": cand.size, "read_instr": cand.read_instr,
            "write_instr": cand.write_instr, "reader_tid": cand.reader_tid,
            "writer_tid": cand.writer_tid, "stack": list(cand.stack),
            "seq": cand.seq},
            side_effect_instr=record.side_effect_instr,
            side_effect_addr=record.side_effect_addr,
            side_effect_size=record.side_effect_size,
            address_flow=bool(record.address_flow))
    return doc


def record_from_doc(doc):
    """A fresh PENDING record rebuilt from :func:`record_to_doc` output."""
    from repro.detect.records import (CandidateRecord, InconsistencyRecord,
                                      SyncInconsistencyRecord)

    image = _decode_image(doc["image"])
    if doc["kind"] == "sync":
        return SyncInconsistencyRecord(
            doc["annotation_name"], doc["addr"], doc["size"],
            doc["init_val"], doc["new_value"], doc["instr_id"],
            tuple(doc["stack"]), image)
    cand = dict(doc["candidate"], stack=tuple(doc["candidate"]["stack"]))
    return InconsistencyRecord(
        CandidateRecord(**cand), doc["side_effect_instr"],
        doc["side_effect_addr"], doc["side_effect_size"],
        doc["address_flow"], tuple(doc["stack"]), image)


def load_fixture(path=FIXTURE):
    """``[(doc, record), ...]`` in file order."""
    with open(path) as handle:
        docs = json.load(handle)["records"]
    return [(doc, record_from_doc(doc)) for doc in docs]


def matching_bugs(target, record):
    """Ids of the catalogued bugs whose matcher ``record`` hits (bugs 1
    and 3 share a site, so a record can match both)."""
    from repro.core.bugmatrix import RECORD_KINDS, _site_text
    from repro.core.results import expected_bugs_for

    return [bug.bug_id for bug in expected_bugs_for(target)
            if bug.kind in RECORD_KINDS and record.kind in bug.kinds
            and any(needle in _site_text(record) for needle in bug.matcher)]


def generate():
    from repro.core.engine import PMRace, PMRaceConfig
    from repro.detect.validation_service import make_validation_queue
    from repro.targets.registry import make_target

    docs = []
    for target in TARGETS:
        config = PMRaceConfig(max_campaigns=CAMPAIGNS, base_seed=SEED,
                              validate=False)
        result = PMRace(make_target(target), config).run()
        records = [r for r in list(result.inconsistencies)
                   + list(result.sync_inconsistencies)
                   if r.crash_image is not None]
        queue = make_validation_queue(target)
        for record in records:
            queue.enqueue(record)
        queue.drain()
        for record in records:
            doc = record_to_doc(target, record)
            doc["bugs"] = matching_bugs(target, record)
            docs.append(doc)
    return {"schema": 1, "seed": SEED, "campaigns": CAMPAIGNS,
            "records": docs}


def main():
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    fixture = generate()
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as handle:
        json.dump(fixture, handle, indent=1, sort_keys=True)
        handle.write("\n")
    kinds = {}
    for doc in fixture["records"]:
        key = (doc["target"], doc["verdict"])
        kinds[key] = kinds.get(key, 0) + 1
    print("wrote %d records to %s: %s" % (len(fixture["records"]), FIXTURE,
                                          sorted(kinds.items())))


if __name__ == "__main__":
    main()
