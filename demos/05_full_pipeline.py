"""The whole pipeline on a synthetic corpus.

Each synthetic story observes two objects that fill slots of one planted
plan and corroborates the plan's slots.  The run seeds the marker in
arrival order, filters paths on evidence before paying for network
evaluation, and approves a path when its posterior beats the plan's prior
a thousandfold.  Dropping the corroboration density shows the evidence
filter doing its job: reported paths stop being evaluated at all.
"""

from planmark import EngineConfig, run, synth_corpus
from planmark.pipeline import RunConfig, SynthParams

config = RunConfig(engine=EngineConfig(half_threshold=1e-8, full_threshold=1e-8,
                                       max_depth=6))

corpus = synth_corpus(seed=2, params=SynthParams(n_stories=4,
                                                 corroboration_density=1.0))
print("one synthetic story:")
print(corpus.streams[0])

totals = [0, 0, 0]
for stream in corpus.streams:
    report = run(corpus.kb, config, stream)
    for i, value in enumerate((report.reported, report.evaluated, report.approved)):
        totals[i] += value

print("with full corroboration:")
print("  reported={} evaluated={} approved={}".format(*totals))

bare = synth_corpus(seed=2, params=SynthParams(n_stories=4,
                                               corroboration_density=0.0))
totals = [0, 0, 0]
for stream in bare.streams:
    report = run(bare.kb, config, stream)
    for i, value in enumerate((report.reported, report.evaluated, report.approved)):
        totals[i] += value

print("with no corroboration (filter stops everything before evaluation):")
print("  reported={} evaluated={} approved={}".format(*totals))

print()
print("a full report, as the CLI prints it:")
print(run(corpus.kb, config, corpus.streams[0]).render())
