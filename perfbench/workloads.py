"""The four benchmark workloads.

Each workload is a closed loop with one client: the harness times run(i)
for every operation i of a fixed, seeded pass, one after another, and
repeats the pass. The first pass is checked in full against the oracles;
every later pass must reproduce its outcomes exactly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import oracle

TABLES = ("scenario_table", "reduction_table", "token_table")
FORMATS = ("markdown", "csv", "json")
THINKING_FACTOR, COMPLEXITY_FACTOR = 1.15, 1.5


class Workload:
    """Interface the harness drives; subclasses fill in the operations."""

    name = ""
    tail_pct = 99.0          # the tail percentile reported as op_tail_ms
    per_pass_tail = True     # percentiles per pass (median over passes) or over the run
    probe_each_op = False    # speed probe after every operation, not once per pass
    planted_index = 0        # the operation whose outcome the self-check re-checks
    units: list[int]         # work units per operation
    nbytes: list[int]        # input bytes per operation

    def __len__(self) -> int:
        return len(self.units)

    def prepare(self, i: int) -> None:
        """Untimed work before operation i."""

    def run(self, i: int):
        raise NotImplementedError

    def collect(self, i: int, raw):
        """Untimed: turn what run() returned into the comparable outcome."""
        return raw

    def check(self, i: int, outcome) -> list[str]:
        raise NotImplementedError

    def planted_check(self, i: int, outcome) -> list[str]:
        """Re-check a correct outcome against a deliberately wrong expectation."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _profile_objects(pkg) -> dict:
    return {name: pkg.FootprintProfile.from_json_obj(name, obj)
            for name, obj in gen.PROFILES.items()}


def _prompt(site: Path) -> str:
    return (site / "docfootprint" / "data" / "fixtures" / "extraction_prompt.txt").read_text(
        encoding="utf-8")


class InvoiceBatch(Workload):
    """run_pipeline with the estimated ledger, then ledger_shares and
    normalize_energy, per synthetic invoice."""

    name = "invoice-batch"
    tail_pct = 99.0

    def __init__(self, pkg, seed: int, site: Path, work: Path, env: dict):
        self.pkg = pkg
        self.docs = gen.invoice_corpus(seed)
        self.prompt = _prompt(site)
        self.prompt_tokens = oracle.tokens(self.prompt)
        self.profile_obj = gen.PROFILES["usecase-2025"]
        self.profile = _profile_objects(pkg)["usecase-2025"]
        self.units = [0 if d.error_line else len(d.rows) for d in self.docs]
        self.nbytes = [len(d.text.encode("utf-8")) for d in self.docs]
        self.planted_index = next(i for i, d in enumerate(self.docs) if d.error_line is None)

    def run(self, i: int):
        pkg = self.pkg
        try:
            result = pkg.run_pipeline(self.docs[i].text, self.prompt, self.profile)
        except pkg.InvoiceParseError as exc:
            return exc
        return (result, pkg.ledger_shares(result.ledger),
                pkg.normalize_energy(result.footprint.energy.kwh,
                                     THINKING_FACTOR, COMPLEXITY_FACTOR))

    def check(self, i: int, outcome) -> list[str]:
        return oracle.check_invoice(self.docs[i], outcome, self.prompt_tokens, self.profile_obj)

    def planted_check(self, i: int, outcome) -> list[str]:
        doc = self.docs[i]
        row = dataclasses.replace(doc.rows[0], planted_delta=doc.rows[0].planted_delta + 7)
        planted = dataclasses.replace(doc, rows=(row, *doc.rows[1:]))
        return oracle.check_invoice(planted, outcome, self.prompt_tokens, self.profile_obj)


class ScenarioGrid(Workload):
    """Scenario.from_json_obj, evaluate_scenario, compare_scenarios against
    the manual baseline and incremental_cost against the previous point."""

    name = "scenario-grid"
    tail_pct = 99.0

    def __init__(self, pkg, seed: int, site: Path, work: Path, env: dict):
        self.pkg = pkg
        self.points = gen.scenario_grid(seed)
        self.profiles = _profile_objects(pkg)
        manual = pkg.Scenario.from_json_obj(gen.MANUAL_SCENARIO)
        self.baselines = {name: pkg.evaluate_scenario(manual, p) for name, p in self.profiles.items()}
        self.first_prev = self.baselines[self.points[0][0]]
        self.prev = self.first_prev
        self.units = [1] * len(self.points)
        self.nbytes = [len(json.dumps(obj, separators=(",", ":"))) for _, obj in self.points]
        self.refs = [oracle.footprint(obj, gen.PROFILES[p]) for p, obj in self.points]
        self.base_refs = {name: oracle.footprint(gen.MANUAL_SCENARIO, obj)
                          for name, obj in gen.PROFILES.items()}

    def run(self, i: int):
        pkg = self.pkg
        if i == 0:
            self.prev = self.first_prev
        profile_name, obj = self.points[i]
        footprint = pkg.evaluate_scenario(pkg.Scenario.from_json_obj(obj), self.profiles[profile_name])
        comparison = pkg.compare_scenarios(self.baselines[profile_name], footprint)
        increment = pkg.incremental_cost(self.prev, footprint)
        self.prev = footprint
        return footprint, comparison, increment

    def _prev_ref(self, i: int) -> dict:
        return self.refs[i - 1] if i else self.base_refs[self.points[0][0]]

    def check(self, i: int, outcome) -> list[str]:
        return oracle.check_point(outcome, self.refs[i], self.base_refs[self.points[i][0]],
                                  self._prev_ref(i))

    def planted_check(self, i: int, outcome) -> list[str]:
        ref = dict(self.refs[i])
        ref["operators"] = (ref["operators"][0] + 1, ref["operators"][1])
        return oracle.check_point(outcome, ref, self.base_refs[self.points[i][0]],
                                  self._prev_ref(i))


class ReportBundle(Workload):
    """Everything report-emit produces, in memory, per config directory:
    load_config, run_pipeline on one invoice, build_bundle, three tables
    in three formats, plot data and the bundle JSON."""

    name = "report-bundle"
    tail_pct = 90.0
    per_pass_tail = False
    probe_each_op = True

    def __init__(self, pkg, seed: int, site: Path, work: Path, env: dict):
        self.pkg = pkg
        self.prompt = _prompt(site)
        dirs = gen.config_dirs(seed, work / "configs")
        data = site / "docfootprint" / "data"
        bundled = json.loads((data / "config.json").read_text(encoding="utf-8"))
        bundled_scenarios = tuple(json.loads((data / ref).read_text(encoding="utf-8"))
                                  for ref in bundled["scenarios"])
        dirs.insert(0, gen.ConfigDir(data, bundled, bundled_scenarios, "manual", sum(
            (data / ref).stat().st_size for ref in ["config.json", *bundled["scenarios"]])))
        self.dirs = dirs
        rng = random.Random(f"report-bundle-invoices:{seed}")
        self.invoices = [gen.invoice(rng, rng.randint(*gen.SMALL_ITEMS)) for _ in dirs]
        prompt_tokens = oracle.tokens(self.prompt)
        self.cases = [self._case(d, inv, prompt_tokens) for d, inv in zip(dirs, self.invoices)]
        self.units = [len(d.scenarios) for d in dirs]
        self.nbytes = [d.n_bytes for d in dirs]

    @staticmethod
    def _case(d: gen.ConfigDir, inv: gen.Invoice, prompt_tokens: int, scenarios=None):
        name = d.config["scenario_profile"]
        counts = {"document": oracle.tokens(inv.text), "prompt": prompt_tokens,
                  "output": oracle.tokens(oracle.extraction_output(inv)), "thinking": 0}
        return oracle.ReportCase(scenarios or d.scenarios, d.config["profiles"][name], name,
                                 d.baseline, counts)

    def run(self, i: int):
        pkg = self.pkg
        d = self.dirs[i]
        config = pkg.load_config(d.path / "config.json")
        usecase = pkg.run_pipeline(self.invoices[i].text, self.prompt,
                                   config.profiles[config.usecase_profile])
        bundle = pkg.build_bundle(config, d.baseline, usecase=usecase)
        outputs = {(table, fmt): pkg.emit_table(bundle, table, fmt)
                   for table in TABLES for fmt in FORMATS}
        outputs["plot_data"] = pkg.emit_plot_data(bundle)
        outputs["bundle"] = pkg.emit_bundle_json(bundle)
        return outputs

    def check(self, i: int, outcome) -> list[str]:
        errors = self.cases[i].check(outcome)
        if i == 0 and outcome[("scenario_table", "markdown")] != oracle.PUBLISHED_SCENARIO_TABLE_MD:
            errors.append("bundled scenario_table.md differs from the README table")
        return errors

    def planted_check(self, i: int, outcome) -> list[str]:
        d = self.dirs[i]
        first = dict(d.scenarios[0], overhead_kwh_per_day=d.scenarios[0]["overhead_kwh_per_day"] + 50)
        planted = self._case(d, self.invoices[i], oracle.tokens(self.prompt),
                             (first, *d.scenarios[1:]))
        return planted.check(outcome)


class CliOneshot(Workload):
    """Fresh `python -m docfootprint.cli` processes over the README's
    command mix, one after another."""

    name = "cli-oneshot"
    tail_pct = 90.0
    per_pass_tail = False
    probe_each_op = True

    def __init__(self, pkg, seed: int, site: Path, work: Path, env: dict):
        self.work, self.env = work, env
        self.trace_child: Path | None = None  # set with tracer for a traced phase
        self.tracer = None
        self.trace_out = work / "child-trace.json"
        data = site / "docfootprint" / "data"
        fixtures = data / "fixtures"
        rng = random.Random(f"cli-oneshot:{seed}")
        wrong = gen.invoice(rng, 12, wrong_total_share=0.0)
        while not any(not r.total_ok for r in wrong.rows):
            wrong = gen.invoice(rng, 12, wrong_total_share=0.25)
        malformed = gen.invoice(rng, 12, malformed=True)
        self.wrong, self.malformed = wrong, malformed
        inputs = work / "cli-inputs"
        inputs.mkdir()
        paths = {}
        for key, text in (("wrong", wrong.text), ("malformed", malformed.text),
                          ("notes-a", gen.invoice(rng, 20).text),
                          ("notes-b", gen.invoice(rng, 6).text)):
            paths[key] = inputs / f"{key}.txt"
            paths[key].write_text(text, encoding="utf-8")
        self.paths = paths
        self.out = [work / "cli-out" / f"c{i}" for i in range(8)]
        o = [str(p) for p in self.out]
        self.commands = [
            ["scenario-compare", "--out", o[0]],
            ["scenario-compare", "--format", "json", "--out", o[1]],
            ["usecase-run", "--ledger", "bundled", "--out", o[2]],
            ["usecase-run", "--document", str(paths["wrong"]), "--out", o[3]],
            ["usecase-run", "--document", str(paths["malformed"]), "--out", o[4]],
            ["thinking-delta", "18000", "10000"],
            ["tokens-count", str(paths["notes-a"]), str(paths["notes-b"])],
            ["report-emit", "--out", o[7]],
        ]
        config_files = [data / "config.json", *sorted((data / "scenarios").glob("*.json"))]
        size = lambda files: sum(Path(f).stat().st_size for f in files)
        usecase = [fixtures / "extraction_prompt.txt", *config_files]
        self.nbytes = [
            size(config_files), size(config_files),
            size([fixtures / "proforma_invoice.txt", fixtures / "ledger.json", *usecase]),
            size([paths["wrong"], *usecase]), size([paths["malformed"], *usecase]),
            size(config_files), size([paths["notes-a"], paths["notes-b"]]),
            size([fixtures / "proforma_invoice.txt", *usecase]),
        ]
        self.units = [1] * len(self.commands)
        self.planted_index = 5
        self.maxrss_kb = 0
        self.published_extraction = (fixtures / "extraction_output.json").read_text(encoding="utf-8")
        self.bundled_case = oracle.ReportCase(
            [json.loads((data / "scenarios" / f"{n}.json").read_text(encoding="utf-8"))
             for n in ("manual", "hitl", "agentic")],
            gen.PROFILES["flash-prompt-2025"], "flash-prompt-2025", "manual",
            {"document": oracle.tokens((fixtures / "proforma_invoice.txt").read_text(encoding="utf-8")),
             "prompt": oracle.tokens((fixtures / "extraction_prompt.txt").read_text(encoding="utf-8")),
             "output": oracle.tokens(self.published_extraction), "thinking": 0})

    def argv(self, i: int) -> list[str]:
        if self.trace_child is not None:
            return [sys.executable, str(self.trace_child), str(self.trace_out), *self.commands[i]]
        return [sys.executable, "-m", "docfootprint.cli", *self.commands[i]]

    def prepare(self, i: int) -> None:
        shutil.rmtree(self.out[i], ignore_errors=True)
        self.stdout = open(self.work / "child.out", "w+b")
        self.stderr = open(self.work / "child.err", "w+b")

    def run(self, i: int):
        proc = subprocess.Popen(self.argv(i), cwd=self.work, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=self.stdout, stderr=self.stderr)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def collect(self, i: int, raw):
        if self.trace_child is not None:
            self.tracer.merge(json.loads(self.trace_out.read_text(encoding="utf-8")))
            self.trace_out.unlink()
        code, maxrss_kb = raw
        self.maxrss_kb = max(self.maxrss_kb, maxrss_kb)
        streams = []
        for stream in (self.stdout, self.stderr):
            stream.seek(0)
            streams.append(stream.read().decode("utf-8"))
            stream.close()
        files = {}
        if self.out[i].is_dir():
            files = {p.name: p.read_text(encoding="utf-8") for p in sorted(self.out[i].iterdir())}
        return code, streams[0], streams[1], files

    def peak_rss_mb(self) -> float:
        return self.maxrss_kb / 1024

    # ----------------------------------------------------------------- oracle

    def _wrote(self, i: int, names) -> str:
        return "".join(f"wrote {self.out[i] / name}\n" for name in names)

    def check(self, i: int, outcome, thinking=oracle.PUBLISHED_THINKING_DELTA) -> list[str]:
        code, out, err, files = outcome
        cmd = self.commands[i][0]
        expected_code = {3: 3, 4: 2}.get(i, 0)
        errors = [] if code == expected_code else [f"{cmd}: exit {code}, expected {expected_code}"]
        if i == 0:
            errors += self._expect(out, self._wrote(i, ["scenario_table.md", "reduction_table.md"]))
            errors += self._expect(files.get("scenario_table.md"), oracle.PUBLISHED_SCENARIO_TABLE_MD)
            errors += self._reduction_md(files.get("reduction_table.md", ""))
        elif i == 1:
            errors += self._expect(out, self._wrote(i, ["bundle.json"]))
            bundle = json.loads(files["bundle.json"])
            self.bundled_case.check_scenario_json(bundle["scenario_table"], errors)
            self.bundled_case.check_reductions_json(bundle["reduction_table"], errors)
        elif i in (2, 3):
            errors += self._expect(out, self._wrote(i, ["extraction_output.json", "usecase_report.json"]))
            errors += self._usecase(i, files, err)
        elif i == 4:
            line = f"error: parser: line {self.malformed.error_line}: "
            if out or not err.startswith(line) or err.count("\n") != 1:
                errors.append(f"malformed invoice: stdout {out!r}, stderr {err!r}")
        elif i == 5:
            errors += self._expect(out, thinking)
        elif i == 6:
            expected = "".join(f"{oracle.tokens(self.paths[k].read_text(encoding='utf-8'))}\t"
                               f"{self.paths[k]}\n" for k in ("notes-a", "notes-b"))
            errors += self._expect(out, expected)
        else:
            names = [f"{t}.md" for t in TABLES] + ["plot_data.json", "bundle.json"]
            errors += self._expect(out, self._wrote(i, names))
            errors += self._expect(files.get("scenario_table.md"), oracle.PUBLISHED_SCENARIO_TABLE_MD)
            errors += self._reduction_md(files.get("reduction_table.md", ""))
            bundle = json.loads(files["bundle.json"])
            case = self.bundled_case
            case.check_scenario_json(bundle["scenario_table"], errors)
            case.check_reductions_json(bundle["reduction_table"], errors)
            case.check_tokens_json(bundle["token_table"], errors)
            if json.loads(files["plot_data.json"]) != bundle["plot_data"]:
                errors.append("report-emit plot_data.json differs from the bundle's copy")
        if i not in (3, 4) and err:
            errors.append(f"{cmd}: unexpected stderr {err!r}")
        return errors

    @staticmethod
    def _expect(got, want) -> list[str]:
        return [] if got == want else [f"got {got!r}, expected {want!r}"]

    def _reduction_md(self, text: str) -> list[str]:
        case = self.bundled_case
        rows = []
        for metric, reductions, increases in case.reduction_refs():
            cells = [metric] + [f"{oracle.present_pct(lo)} -- {oracle.present_pct(hi)}"
                                for lo, hi in reductions.values()]
            for lo, hi in increases.values():
                lo, hi = oracle.present_pct(lo), oracle.present_pct(hi)
                cells.append(f"+{lo} -- +{hi}" if lo >= 0 else f"{lo} -- {hi}")
            rows.append("| " + " | ".join(cells) + " |")
        body = text.split("\n")[2:-1]
        return [] if body == rows else [f"reduction_table.md rows {body}, expected {rows}"]

    def _usecase(self, i: int, files: dict, err: str) -> list[str]:
        errors = []
        report = json.loads(files["usecase_report.json"])
        profile = gen.PROFILES["usecase-2025"]
        if i == 2:
            if files.get("extraction_output.json") != self.published_extraction:
                errors.append("extraction_output.json differs from the published fixture")
            counts = {"document": 9030, "prompt": 1259, "output": 217, "thinking": 1400}
            source, failures = "measured", []
        else:
            inv = self.wrong
            if files.get("extraction_output.json") != oracle.extraction_output(inv):
                errors.append("extraction_output.json differs from the ground truth")
            counts = {"document": oracle.tokens(inv.text),
                      "prompt": self.bundled_case.token_counts["prompt"],
                      "output": oracle.tokens(oracle.extraction_output(inv)), "thinking": 0}
            source = "estimated"
            failures = [r.item_id for r in inv.rows if not r.total_ok]
            got = [line.split(" (delta ")[0].removeprefix("verification failed: ")
                   for line in err.splitlines()]
            if got != failures:
                errors.append(f"verification stderr {err!r}, planted rows {failures}")
        total = sum(counts.values())
        if report["ledger"] != {**counts, "source": source, "total": total}:
            errors.append(f"ledger {report['ledger']}, expected {counts} ({source})")
        kwh = total * profile["rate_wh_per_ktok"] / 1e6
        fp = report["footprint"]
        wue = profile["wue_l_per_kwh"]
        if not (oracle.close(fp["energy_kwh"], kwh)
                and oracle.close(fp["co2_g"], kwh * profile["emission_factor_g_per_kwh"])
                and oracle.close(fp["water_l"][0], kwh * wue[0])
                and oracle.close(fp["water_l"][1], kwh * wue[1])):
            errors.append(f"footprint {fp}, expected {kwh!r} kWh")
        if not oracle.close(report["normalized_energy_kwh"], kwh / (THINKING_FACTOR * COMPLEXITY_FACTOR)):
            errors.append(f"normalized energy {report['normalized_energy_kwh']!r}")
        errors += oracle.check_shares(report["shares_pct"], counts)
        if report["verification"] != {"items": 15 if i == 2 else len(self.wrong.rows),
                                      "failures": failures}:
            errors.append(f"verification {report['verification']}")
        return errors

    def planted_check(self, i: int, outcome) -> list[str]:
        return self.check(5, outcome, thinking=oracle.PUBLISHED_THINKING_DELTA.replace("55.6", "55.7"))


WORKLOADS = {w.name: w for w in (InvoiceBatch, ScenarioGrid, ReportBundle, CliOneshot)}
