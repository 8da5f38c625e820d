"""Command-line entry points. All numeric output uses 17 significant digits."""

import argparse
import sys

import numpy as np

from .blas import pin_blas_threads
from .bounds import DiscreteDist, check_target_bound, fisher_rao_univariate, hilbert_discrete, tv_discrete
from .embedding import embed
from .errors import ConfigError, GeomomentError, NonFiniteLoss
from .gradcheck import FD_BOUND, audit_dist_loss, audit_network
from .losses import DIST_KINDS
from .matrixio import fmt, matrix_text, read_matrix, read_moments, write_matrix
from .rng import stream
from .runner import load_run_config, run_experiment, sweep_dim
from .spd import dist_airm, dist_hilbert, dist_logeuclid, validate_spd


def _cmd_embed(args):
    m = read_moments(args.moments)
    P = embed(m)
    if args.out:
        write_matrix(args.out, P)
    else:
        sys.stdout.write(matrix_text(P))
    return 0


_DISTS = {"airm": dist_airm, "hilbert": dist_hilbert, "logeuclid": dist_logeuclid}


def _cmd_dist(args):
    P1 = validate_spd(read_matrix(args.p1))
    P2 = validate_spd(read_matrix(args.p2))
    print(fmt(_DISTS[args.kind](P1, P2)))
    return 0


def _cmd_gradcheck(args):
    kinds = (args.kind,) if args.kind else None
    worst_loss = audit_dist_loss(seed=args.seed, **({"kinds": kinds} if kinds else {}))
    worst_net = audit_network(seed=args.seed)
    print(f"dist_loss max relative error: {fmt(worst_loss)}")
    print(f"network max relative error: {fmt(worst_net)}")
    if worst_loss <= FD_BOUND and worst_net <= FD_BOUND:
        return 0
    print(f"error: gradient audit above {FD_BOUND:g}", file=sys.stderr)
    return 1


def _cmd_bound_check(args):
    rng = stream(args.seed, 0)
    rows = []
    for i in range(args.pairs):
        k = 2 + int(rng.integers(0, 7))  # support sizes 2..8
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        p = np.maximum(p, 1e-6)
        q = np.maximum(q, 1e-6)
        p = DiscreteDist(p / p.sum())
        q = DiscreteDist(q / q.sum())
        res = check_target_bound(p, q)
        rows.append(
            f"{k},{i},{fmt(tv_discrete(p, q))},{fmt(hilbert_discrete(p, q))},"
            f"{fmt(res.rhs)},{fmt(res.slack)},{int(res.holds)}"
        )
    text = "k,seed,tv,hilbert,rhs,slack,holds\n" + "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_oracle_fr(args):
    print(fmt(fisher_rao_univariate(args.mu1, args.sigma1, args.mu2, args.sigma2)))
    return 0


def _cmd_train(args):
    cfg = load_run_config(args.config, seed=args.seed, out_dir=args.out)
    row, _ = run_experiment(cfg)
    print(
        f"task={row['task']} kind={row['dist_kind']} seed={row['seed']} "
        f"source_metric={fmt(row['source_metric'])} "
        f"target_metric={fmt(row['target_metric'])}"
    )
    return 0


def _cmd_sweep_dim(args):
    cfg = load_run_config(args.config, seed=args.seed, out_dir=args.out)
    dims = [int(d) for d in args.dims.split(",") if d.strip()]
    rows, best = sweep_dim(cfg, dims)
    print(f"wrote {len(rows)} rows; best dims: {best}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="geomoment")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="moments file -> SPD matrix file")
    p.add_argument("moments")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("dist", help="distance between two SPD matrix files")
    p.add_argument("p1")
    p.add_argument("p2")
    p.add_argument("--kind", choices=sorted(_DISTS), required=True)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("gradcheck", help="random-instance gradient audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", choices=DIST_KINDS, default=None)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("bound-check", help="TV vs tanh-of-Hilbert bound sweep -> CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=10000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bound_check)

    p = sub.add_parser("oracle-fr", help="univariate Fisher-Rao distance")
    p.add_argument("mu1", type=float)
    p.add_argument("sigma1", type=float)
    p.add_argument("mu2", type=float)
    p.add_argument("sigma2", type=float)
    p.set_defaults(func=_cmd_oracle_fr)

    p = sub.add_parser("train", help="run one experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep-dim", help="dimensionality sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--dims", required=True, help="comma-separated embed dims")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep_dim)

    return ap


def main(argv=None):
    pin_blas_threads()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteLoss as exc:
        rec = exc.record or {}
        print(f"non-finite loss in the run with seed={rec.get('seed')} "
              f"dist_kind={rec.get('dist_kind')}: {exc} record={rec}", file=sys.stderr)
        return 3
    except (GeomomentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
