"""The whole pipeline on a synthetic corpus.

Each synthetic story observes two objects that fill slots of one planted
plan and corroborates the plan's slots.  The run seeds the marker in
arrival order, filters paths on evidence before paying for network
evaluation, and approves a path when its posterior beats the plan's prior
a thousandfold.  Dropping the corroboration density shows the evidence
filter doing its job: reported paths stop being evaluated at all.
"""

from planmark import EngineConfig, load_kb, run, synth_corpus
from planmark.pipeline import RunConfig, SynthParams

config = RunConfig(engine=EngineConfig(half_threshold=1e-8, full_threshold=1e-8,
                                       max_depth=6))

# A corpus is the text of its base and one stream per story; the base is
# loaded once and serves every stream.
corpus = synth_corpus(seed=2, params=SynthParams(n_stories=4,
                                                 corroboration_density=1.0))
kb = load_kb(corpus.kb_text)
print("one synthetic story:")
print(corpus.streams[0])

totals = [0, 0, 0]
for stream in corpus.streams:
    report = run(kb, config, stream)
    for i, value in enumerate((report.reported, report.evaluated, report.approved)):
        totals[i] += value

print("with full corroboration:")
print("  reported={} evaluated={} approved={}".format(*totals))

bare = synth_corpus(seed=2, params=SynthParams(n_stories=4,
                                               corroboration_density=0.0))
bare_kb = load_kb(bare.kb_text)
totals = [0, 0, 0]
for stream in bare.streams:
    report = run(bare_kb, config, stream)
    for i, value in enumerate((report.reported, report.evaluated, report.approved)):
        totals[i] += value

print("with no corroboration (filter stops everything before evaluation):")
print("  reported={} evaluated={} approved={}".format(*totals))

print()
print("a full report, as the CLI prints it:")
print(run(kb, config, corpus.streams[0]).render())
