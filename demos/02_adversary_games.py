"""Adversary games: how request sequences punish online algorithms.

Three constructions are played out:

1. The path adversary feeds overlapping pairs {1,2},{2,3},...,{n-1,n} and
   then duplicates an endpoint pair on the far side of whatever slot the
   algorithm left free. Any algorithm ends with Omega(n) crossings while
   the offline optimum is 1.
2. The adaptive adversary probes with one request, watches where it lands,
   and answers with a block tailored to that choice, round after round.
   Each answer block costs any placement at least 4 crossings where the
   optimum needs 3. Against greedy, with r rounds and r a multiple of 4, the
   game ends at 5r+3 crossings against an optimum of 15r/4+3.
3. The duplicated-pairs family is a fixed (non-adaptive) sequence on which
   the barycenter heuristic degrades with n while greedy stays optimal.

Every game is scored with `run_experiment`'s default optimum, read from the
game's pair-kind counts and exact at every size.

Run: python3 demos/02_adversary_games.py
"""

from oscm.adversaries import fig8_instance, thm1_adversary, thm2_adversary
from oscm.algorithms import BARYCENTER, GREEDY, OnlineAlgorithm
from oscm.harness import run_experiment


def path_adversary_demo() -> None:
    print("== path adversary ==")
    n = 10

    def leave_slot_5(board, request):
        candidates = [s for s in board.free if s != 5]
        return candidates[0] if candidates else 5

    alg = OnlineAlgorithm(name="leave_slot_5", choose=leave_slot_5)
    report, trace = run_experiment(alg, thm1_adversary(n))
    print(f"n={n}: {alg.name} pays {report.alg_crossings} crossings, "
          f"optimum is {report.opt_crossings}")
    print(f"final request (aimed at the hole): "
          f"({trace.steps[-1].request.a},{trace.steps[-1].request.b})")
    print()


def adaptive_adversary_demo() -> None:
    print("== adaptive adversary vs greedy ==")
    for rounds in (1, 4, 8):
        report, _ = run_experiment(GREEDY, thm2_adversary(rounds))
        print(f"rounds={rounds:2} n={report.n:3}: greedy={report.alg_crossings:4} "
              f"opt={report.opt_crossings:4} ratio={report.ratio:.3f}")
    print()


def duplicated_pairs_demo() -> None:
    print("== duplicated-pairs family ==")
    for n in (4, 6, 8):
        inst = fig8_instance(n)
        bary, _ = run_experiment(BARYCENTER, inst, source_id=f"dup({n})")
        greedy, _ = run_experiment(GREEDY, inst, source_id=f"dup({n})")
        print(f"n={n}: opt={bary.opt_crossings} "
              f"barycenter={bary.alg_crossings} (ratio {bary.ratio:.2f})  "
              f"greedy={greedy.alg_crossings} (ratio {greedy.ratio:.2f})")


def main() -> None:
    path_adversary_demo()
    adaptive_adversary_demo()
    duplicated_pairs_demo()


if __name__ == "__main__":
    main()
