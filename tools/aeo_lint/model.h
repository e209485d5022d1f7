/**
 * @file
 * Stage 2 of the aeo-lint analyzer (DESIGN.md §16): a lightweight semantic
 * model per translation unit, built from the token stream alone — no
 * preprocessing, no type checking.
 *
 * The model indexes:
 *
 *  - function definitions: name, enclosing class (from an explicit
 *    `X::f` qualifier or the surrounding `class X { ... }` scope), the
 *    line of the name token, and the token range of the body;
 *  - each class's base list, by the last identifier of each base
 *    (`public ::testing::Test` names `Test`), so a plain call inside a
 *    method can resolve to an inherited member;
 *  - call sites inside each body: callee name, explicit qualifier when
 *    spelled (`X::f(...)`), member-access flag (`obj.f(...)`), line;
 *  - variable names declared with growth-capable standard containers
 *    (`std::vector`, `std::string`, `std::deque`, `std::map`, `std::set`
 *    and their unordered/multi cousins) and, as a subset, names declared
 *    with unordered containers — the determinism and hot-path rule
 *    families key their receiver checks on these name sets;
 *  - hot-path annotations attached to the next function definition, plus
 *    annotation lines that attach to nothing (a finding: a dangling
 *    annotation protects nothing).
 *
 * Known unsoundness (deliberate, documented in DESIGN.md §16): matching is
 * name-based. Two functions sharing a name are merged conservatively by
 * the call-graph layer; a variable's declared type is only visible when
 * the declaration is spelled in the same file; typedefs and aliases are
 * invisible. The rules that consume the model over-approximate reachability
 * and under-approximate receiver types accordingly.
 */
#ifndef AEO_TOOLS_AEO_LINT_MODEL_H_
#define AEO_TOOLS_AEO_LINT_MODEL_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace aeo::lint {

/** One call site inside a function body. */
struct CallSite {
    /** Callee name as spelled (last identifier before the `(`). */
    std::string name;
    /** Receiver class: from an explicit `Qualifier::name(...)` spelling, or
     * inferred from the receiver variable's declared type when the
     * declaration is visible in the same file (`app_->Advance()` with
     * `AppModel* app_;` yields "AppModel"). Empty when unknown. */
    std::string qualifier;
    /** True when spelled as a member access (`obj.f(...)`, `p->f(...)`). */
    bool member_access = false;
    int line = 0;
};

/** One function definition (a declaration with a body). */
struct FunctionDef {
    std::string name;
    /** Enclosing class/struct, or the explicit out-of-line qualifier. */
    std::string class_name;
    /** Line of the function's name token. */
    int line = 0;
    /** Token index range of the body, excluding the braces: [begin, end). */
    size_t body_begin = 0;
    size_t body_end = 0;
    /** True when a hot-path annotation comment precedes the definition. */
    bool hot_path = false;
    /** True when a hot-path-stop annotation precedes the definition: the
     * allocation analysis treats this function as a barrier. */
    bool hot_path_stop = false;
    std::vector<CallSite> calls;
};

/** The per-file semantic model. */
struct TranslationUnit {
    std::string rel_path;
    LexedSource lexed;
    std::vector<FunctionDef> functions;
    /** Class name -> its direct bases, as spelled in this file. */
    std::map<std::string, std::vector<std::string>> class_bases;
    /** Names declared with a growth-capable std container in this file. */
    std::set<std::string> growable_vars;
    /** Names declared with an unordered container in this file. */
    std::set<std::string> unordered_vars;
    /** Local callables: names bound to lambdas (`auto pad = [...]`). Calls
     * through them are not indexed — the lambda body is inside the
     * enclosing function's token range and is scanned there. */
    std::set<std::string> local_callables;
    /** Hot-path annotation lines with no function definition to attach to
     * (the next definition starts more than two lines below, or the file
     * ends first). */
    std::vector<int> dangling_hot_annotations;
};

/** Builds the model for one lexed file. */
TranslationUnit BuildTranslationUnit(std::string rel_path,
                                     LexedSource lexed);

}  // namespace aeo::lint

#endif  // AEO_TOOLS_AEO_LINT_MODEL_H_
