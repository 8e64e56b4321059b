"""Independent brute-force oracles used by the tests.

These deliberately re-derive semantics from raw tuples and sets, without
going through the package's own evaluation or search code, so that a bug
in the library cannot hide itself.  The ``reference_*`` functions keep
earlier, simpler versions of the library's search cores, so that verdicts,
witnesses or work can be compared with them.
"""

from collections import deque
from itertools import combinations, product

from reoptlab.errors import SearchBudgetError
from reoptlab.gadgets import (
    clause_node,
    double_prime_node,
    literal_node,
    ordered_clauses,
    prime_node,
)
from reoptlab.graphs import add_edges, edge, graph, remove_edges
from reoptlab.strips import (
    DEFAULT_SEARCH_BUDGET,
    Plan,
    satisfies_goal,
)


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


def canonical_clause(literals):
    """Literals as a clause: deduplicated, by variable, the positive literal first."""
    return tuple(sorted(set(literals), key=lambda lit: (abs(lit), lit < 0)))


def guarded_clauses(clauses, a):
    """The guarded formula's clauses, {c or a | c in G}."""
    return {canonical_clause((*c, a)) for c in clauses}


def single_model_clauses(clauses, variables, a):
    """The single-model formula's clauses, {a} plus {x or c | x in X plus a, c in G plus -a}."""
    product = {canonical_clause((x, *c)) for x in (*variables, a) for c in (*clauses, (-a,))}
    return product | {(a,)}


def brute_min_cover_size(nodes, edges):
    nodes = sorted(nodes)
    for size in range(len(nodes) + 1):
        for combo in combinations(nodes, size):
            members = set(combo)
            if all(u in members or v in members for u, v in edges):
                return size
    raise AssertionError("unreachable: the full node set covers")


def reference_gadget_graph(formula):
    """A formula's cover gadget graph, as ``build_gadget`` first listed it."""
    nodes, edges = [], []
    for v in sorted(formula.alphabet):
        for lit in (v, -v):
            nodes.extend((literal_node(lit), prime_node(lit), double_prime_node(lit)))
        edges.append((literal_node(v), literal_node(-v)))
    edges.extend((literal_node(cl[0]), prime_node(cl[0])) for cl in formula.clauses if len(cl) == 1)
    for index, cl in enumerate(ordered_clauses(formula), start=1):
        members = [clause_node(index, pos) for pos in range(1, len(cl) + 1)]
        nodes.extend(members)
        edges.extend(combinations(members, 2))
        edges.extend((member, literal_node(lit)) for member, lit in zip(members, cl))
    return graph(nodes, edges)


def reference_unit_edit(g, clauses, lit):
    """A gadget graph after one unit edit, by the first edit rules.

    Removing the unit clause ``lit`` (present in ``clauses``) adds the
    relaxing edge (l', l''); adding it adds the forcing edge (l, l'), or,
    when that edge is already there from an earlier removal, deletes the
    relaxing edge again.  Each edit is one ``add_edges`` or ``remove_edges``.
    """
    forcing = (literal_node(lit), prime_node(lit))
    relaxing = (prime_node(lit), double_prime_node(lit))
    if (lit,) in clauses:
        return add_edges(g, [relaxing])
    if edge(*forcing) not in g.edges:
        return add_edges(g, [forcing])
    return remove_edges(g, [relaxing])


def reference_gadget_budget(g, formula):
    """|alphabet| + literal occurrences - |clauses| + relaxing edges present."""
    relaxing = sum(edge(prime_node(lit), double_prime_node(lit)) in g.edges
                   for v in formula.alphabet for lit in (v, -v))
    occurrences = sum(len(cl) for cl in formula.clauses)
    return len(formula.alphabet) + occurrences - len(formula.clauses) + relaxing


def plan_reachable(conditions, operators, initial, goal_true, goal_false, max_nodes=300_000):
    """Plan existence for add-only operators by exhaustive sequence search.

    Explores every operator sequence in which each step adds at least one
    new condition (any valid plan can be thinned to such a sequence), with
    no state memoization, so it is a genuinely different algorithm from
    the library's plan search, which it cross-checks.
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


def reference_dpll(formula, key=None):
    """Recursive DPLL with unit propagation, copying the assignment per branch.

    Branches on the lowest unassigned variable, true first, after
    propagating the first unit literal of each pass over the clauses,
    taken in ``sorted(formula.clauses, key=key)`` order.  Under the
    default plain tuple order the library's trail-based DPLL must return
    the same ``(model, work)``, so the two are compared for equality.
    Unit propagation reaches the same fixpoint in any order, so under
    another order only ``work`` may differ.
    """
    ordered = sorted(formula.clauses, key=key)
    work = 0

    def scan(assign):
        # Single pass over the clauses: detect conflicts, find the first
        # unit literal, and track the lowest branchable variable.
        unit = None
        branch = None
        satisfied = True
        for cl in ordered:
            cl_sat = False
            unassigned = []
            for lit in cl:
                val = assign.get(abs(lit))
                if val is None:
                    unassigned.append(lit)
                elif val == (lit > 0):
                    cl_sat = True
                    break
            if cl_sat:
                continue
            if not unassigned:
                return "conflict", None, None
            satisfied = False
            if unit is None and len(unassigned) == 1:
                unit = unassigned[0]
            low = min(abs(lit) for lit in unassigned)
            if branch is None or low < branch:
                branch = low
        if satisfied:
            return "sat", None, None
        return "open", unit, branch

    def search(assign):
        nonlocal work
        while True:
            state, unit, branch = scan(assign)
            if state == "conflict":
                return None
            if state == "sat":
                return frozenset(v for v, b in assign.items() if b)
            if unit is None:
                break
            assign[abs(unit)] = unit > 0
            work += 1
        for value in (True, False):
            work += 1
            child = dict(assign)
            child[branch] = value
            model = search(child)
            if model is not None:
                return model
        return None

    return search({}), work


def reference_plan_search(instance, max_states=DEFAULT_SEARCH_BUDGET):
    """Breadth-first add-only plan search with safe-operator saturation.

    Branches on every applicable unsafe operator, in name order, over
    bitmask states, and returns ``(plan, states expanded)``; the plan has
    the fewest branching steps.  It drops no irrelevant operator, so the
    library's depth-first search must reach the same verdict on every
    instance, with a witness that validates.
    """
    offenders = sorted(n for n, op in instance.operators.items() if op.neg_post)
    if offenders:
        raise ValueError(f"operators with negative postconditions: {offenders}")
    goal = instance.goal
    # Conditions never become false again, so any state overlapping
    # must_false is a dead end, the initial state included.
    if goal.must_false & instance.initial:
        return None, 0
    if satisfies_goal(instance.initial, goal):
        return (), 0
    bits = {c: 1 << i for i, c in enumerate(sorted(instance.conditions))}

    def mask(conditions) -> int:
        return sum(bits[c] for c in conditions)

    ops = [(name, mask(op.pos_pre), mask(op.neg_pre), mask(op.pos_post))
           for name, op in sorted(instance.operators.items())]
    need, forbid = mask(goal.must_true), mask(goal.must_false)
    watched = forbid
    for _, _, neg, _ in ops:
        watched |= neg
    safe = [op for op in ops if not op[3] & watched]
    unsafe = [op for op in ops if op[3] & watched]

    def saturate(state: int) -> tuple[int, Plan]:
        # Safe steps add no watched condition, so none can reach must_false.
        steps: list[str] = []
        grew = True
        while grew and state & need != need:
            grew = False
            for name, pre, neg, post in safe:
                if post & ~state and state & pre == pre and not state & neg:
                    state |= post
                    steps.append(name)
                    grew = True
                    if state & need == need:
                        break
        return state, tuple(steps)

    def plan_to(state: int) -> Plan:
        parts = []
        while state is not None:
            state, steps = parents[state]
            parts.append(steps)
        return tuple(name for steps in reversed(parts) for name in steps)

    root, steps = saturate(mask(instance.initial))
    parents: dict[int, tuple[int | None, Plan]] = {root: (None, steps)}
    if root & need == need:
        return plan_to(root), 0
    queue = deque([root])
    expanded = 0
    while queue:
        state = queue.popleft()
        expanded += 1
        if expanded > max_states:
            raise SearchBudgetError(f"more than {max_states} states expanded")
        for name, pre, neg, post in unsafe:
            if state & pre != pre or state & neg:
                continue
            successor = state | post
            if successor in parents or successor & forbid:
                continue
            successor, steps = saturate(successor)
            if successor in parents:
                continue
            parents[successor] = (state, (name,) + steps)
            if successor & need == need:
                return plan_to(successor), expanded
            queue.append(successor)
    return None, expanded


def reference_plan_dfs(instance, max_states=DEFAULT_SEARCH_BUDGET):
    """Depth-first add-only plan search over relevant operators, with no dead-end test.

    The library's search before it cut states whose delete-relaxed closure
    misses the goal: it saturates safe operators and branches on relevant
    unsafe ones in name order, and returns ``(plan, states expanded)``.
    A sound cut removes only subtrees with no plan, so the library must
    return the same plan with no more expansions.
    """
    offenders = sorted(n for n, op in instance.operators.items() if op.neg_post)
    if offenders:
        raise ValueError(f"operators with negative postconditions: {offenders}")
    goal = instance.goal
    # Conditions never become false again, so any state overlapping
    # must_false is a dead end, the initial state included.
    if goal.must_false & instance.initial:
        return None, 0
    if satisfies_goal(instance.initial, goal):
        return (), 0
    bits = {c: 1 << i for i, c in enumerate(sorted(instance.conditions))}

    def mask(conditions) -> int:
        return sum(bits[c] for c in conditions)

    ops = [(name, mask(op.pos_pre), mask(op.neg_pre), mask(op.pos_post))
           for name, op in sorted(instance.operators.items())]
    need, forbid = mask(goal.must_true), mask(goal.must_false)
    watched = forbid
    for _, _, neg, _ in ops:
        watched |= neg
    relevant = need
    grew = True
    while grew:
        grew = False
        for _, pre, _, post in ops:
            if post & relevant and pre & ~relevant:
                relevant |= pre
                grew = True
    ops = [op for op in ops if op[3] & relevant]
    safe = [op for op in ops if not op[3] & watched]
    unsafe = [op for op in ops if op[3] & watched]

    def saturate(state: int) -> tuple[int, Plan]:
        # Safe steps add no watched condition, so none can reach must_false.
        steps: list[str] = []
        grew = True
        while grew and state & need != need:
            grew = False
            for name, pre, neg, post in safe:
                if post & ~state and state & pre == pre and not state & neg:
                    state |= post
                    steps.append(name)
                    grew = True
                    if state & need == need:
                        break
        return state, tuple(steps)

    def plan_to(state: int) -> Plan:
        parts = []
        while state is not None:
            state, steps = parents[state]
            parts.append(steps)
        return tuple(name for steps in reversed(parts) for name in steps)

    root, steps = saturate(mask(instance.initial))
    parents: dict[int, tuple[int | None, Plan]] = {root: (None, steps)}
    if root & need == need:
        return plan_to(root), 0
    stack = [root]
    expanded = 0
    while stack:
        state = stack.pop()
        expanded += 1
        if expanded > max_states:
            raise SearchBudgetError(f"more than {max_states} states expanded")
        successors = []
        for name, pre, neg, post in unsafe:
            if not post & relevant & ~state or state & pre != pre or state & neg:
                continue
            successor = state | post
            if successor in parents or successor & forbid:
                continue
            successor, steps = saturate(successor)
            if successor in parents:
                continue
            parents[successor] = (state, (name,) + steps)
            if successor & need == need:
                return plan_to(successor), expanded
            successors.append(successor)
        stack.extend(reversed(successors))
    return None, expanded
