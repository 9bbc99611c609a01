"""One-document survey report.

Turns a :class:`~repro.core.survey.SurveyResults` into a single markdown
document with every figure, table and population observation — the artifact
a measurement campaign would publish.

The family-specific sections are not written here: each experiment family
registers a :class:`~repro.core.registry.ReportSection` next to its probe,
and this module renders whatever the registry holds, in section order.  A
family added to the registry appears in reports without touching this
package.  Only the campaign-level framing lives here — the Table 1 device
inventory up top and the shard-failure appendix at the bottom.
"""

from __future__ import annotations

from repro.analysis.figures import code_block
from repro.analysis.tables import render_table1
from repro.core import registry
from repro.core.survey import SurveyResults
from repro.devices import catalog_profiles


def render_report(results: SurveyResults, title: str = "Home gateway survey") -> str:
    """Render whatever families ``results`` contains into markdown."""
    sections = [f"# {title}", ""]

    sections.append("## Device inventory (Table 1)")
    tags = _population_tags(results)
    profiles = [p for p in catalog_profiles() if not tags or p.tag in tags]
    if profiles:
        sections.append(code_block(render_table1(profiles)))

    for section in registry.report_sections():
        if not section.wants(results):
            continue
        rendered = section.render(results)
        if rendered:
            sections.append(rendered)

    if results.errors:
        sections.append("## Shard failures")
        sections.append(
            f"{len(results.errors)} failure(s), whose cells every figure above omits. "
            "A failed shard's row names the family that raised (or the whole shard): "
            "that family's cell is missing, and so are those of the families the shard "
            "had yet to run. A row read back from a store names one missing cell."
        )
        rows = ["| subject | family | error | message |", "|---------|--------|-------|---------|"]
        for error in results.errors:
            rows.append(
                f"| {error.tag} | {error.family or 'whole shard'} | {error.error} | {error.message} |"
            )
        sections.append("\n".join(rows))

    return "\n\n".join(sections) + "\n"


def _population_tags(results: SurveyResults) -> set:
    """The device tags the campaign measured, from any populated family."""
    for fam in registry.families():
        mapping = results.family(fam.name)
        if mapping:
            return set(mapping)
    return set()
