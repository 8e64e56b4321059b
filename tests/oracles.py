"""Independent brute-force oracles used by the tests.

These deliberately re-derive semantics from raw tuples and sets, without
going through the package's own evaluation or search code, so that a bug
in the library cannot hide itself.
"""

from itertools import combinations, product


def truth_assignments(variables):
    variables = sorted(variables)
    for values in product((False, True), repeat=len(variables)):
        yield {v for v, bit in zip(variables, values) if bit}


def clause_true(cl, true_vars):
    return any((lit > 0 and abs(lit) in true_vars) or (lit < 0 and abs(lit) not in true_vars)
               for lit in cl)


def formula_true(clauses, true_vars):
    return all(clause_true(cl, true_vars) for cl in clauses)


def brute_models(clauses, variables):
    return [a for a in truth_assignments(variables) if formula_true(clauses, a)]


def brute_sat(clauses, variables):
    return bool(brute_models(clauses, variables))


def brute_min_cover_size(nodes, edges):
    nodes = sorted(nodes)
    for size in range(len(nodes) + 1):
        for combo in combinations(nodes, size):
            members = set(combo)
            if all(u in members or v in members for u, v in edges):
                return size
    raise AssertionError("unreachable: the full node set covers")


def plan_reachable(conditions, operators, initial, goal_true, goal_false, max_nodes=300_000):
    """Plan existence for add-only operators by exhaustive sequence search.

    Explores every operator sequence in which each step adds at least one
    new condition (any valid plan can be thinned to such a sequence), with
    no state memoization, so it is a genuinely different algorithm from
    the breadth-first search it cross-checks.
    """
    goal_true = set(goal_true)
    goal_false = set(goal_false)
    names = sorted(operators)
    budget = [max_nodes]

    def goal_met(state):
        return goal_true <= state and not goal_false & state

    def explore(state):
        budget[0] -= 1
        if budget[0] < 0:
            raise RuntimeError("oracle budget exceeded")
        if goal_met(state):
            return True
        for name in names:
            pos_pre, neg_pre, pos_post = operators[name]
            if not set(pos_pre) <= state or set(neg_pre) & state:
                continue
            grown = state | set(pos_post)
            if grown == state:
                continue
            if explore(grown):
                return True
        return False

    return explore(set(initial))


def reference_decide_cover(nodes, edges, budget):
    """Recursive at-most-k cover branch-and-bound with no lower bound.

    Branches on the highest-degree node (smallest label on ties): first
    "node in the cover", then "all its neighbours in the cover".  The
    library's bounded search must reach the same first cover, so its
    witnesses are compared for equality against this function.
    """
    adj = {n: set() for n in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    chosen = []

    def detach(node):
        neighbours = adj.pop(node)
        for other in neighbours:
            adj[other].discard(node)
        return neighbours

    def attach(node, neighbours):
        adj[node] = neighbours
        for other in neighbours:
            adj[other].add(node)

    def search(k):
        pick, degree = None, 0
        for node in sorted(adj):
            if len(adj[node]) > degree:
                pick, degree = node, len(adj[node])
        if pick is None:
            return True
        if k <= 0:
            return False
        neighbours = sorted(adj[pick])
        saved = detach(pick)
        chosen.append(pick)
        if search(k - 1):
            return True
        chosen.pop()
        attach(pick, saved)
        if len(neighbours) <= k:
            saved_all = [detach(n) for n in neighbours]
            chosen.extend(neighbours)
            if search(k - len(neighbours)):
                return True
            del chosen[-len(neighbours):]
            for node, nbrs in zip(reversed(neighbours), reversed(saved_all)):
                attach(node, nbrs)
        return False

    return frozenset(chosen) if search(budget) else None
