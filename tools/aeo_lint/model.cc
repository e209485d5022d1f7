#include "model.h"

#include <algorithm>
#include <cctype>
#include <map>

namespace aeo::lint {

namespace {

bool
IsPunct(const Token& t, const char* text)
{
    return t.kind == TokKind::kPunct && t.text == text;
}

bool
IsIdent(const Token& t, const char* text)
{
    return t.kind == TokKind::kIdent && t.text == text;
}

/** Built-in types: `double(x)` is a cast, not a call worth indexing. */
bool
IsBuiltinType(const std::string& ident)
{
    static const std::set<std::string> kTypes = {
        "int",      "double",   "float",    "char",     "bool",
        "long",     "short",    "unsigned", "signed",   "void",
        "auto",     "size_t",   "ssize_t",  "ptrdiff_t","wchar_t",
        "int8_t",   "int16_t",  "int32_t",  "int64_t",  "uint8_t",
        "uint16_t", "uint32_t", "uint64_t", "uintptr_t","intptr_t"};
    return kTypes.count(ident) > 0;
}

/** Keywords that may precede a base class name in a base clause. */
bool
IsAccessOrVirtual(const std::string& ident)
{
    return ident == "public" || ident == "protected" || ident == "private" ||
           ident == "virtual";
}

/** Growth-capable standard containers whose declared variable names the
 * receiver checks key on. */
bool
IsContainerName(const std::string& ident, bool* unordered)
{
    static const std::set<std::string> kGrowable = {
        "vector", "string", "basic_string", "deque", "list",
        "map",    "set",    "multimap",     "multiset"};
    static const std::set<std::string> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    if (kUnordered.count(ident) > 0) {
        *unordered = true;
        return true;
    }
    *unordered = false;
    return kGrowable.count(ident) > 0;
}

/** Skips a balanced token group starting at @p i (which must hold @p open);
 * returns the index just past the matching close, or @p n on imbalance. */
size_t
SkipBalanced(const std::vector<Token>& toks, size_t i, const char* open,
             const char* close)
{
    int depth = 0;
    const size_t n = toks.size();
    for (; i < n; ++i) {
        if (IsPunct(toks[i], open)) {
            ++depth;
        } else if (IsPunct(toks[i], close)) {
            if (--depth == 0) return i + 1;
        }
    }
    return n;
}

/** Skips a balanced template argument list starting at the `<` at @p i;
 * `>>` closes two levels. Returns the index past the closing token, or
 * @p i + 1 when the angle never balances (a less-than expression). */
size_t
SkipAngles(const std::vector<Token>& toks, size_t i)
{
    int depth = 0;
    const size_t n = toks.size();
    const size_t limit = std::min(n, i + 256);  // expressions, not templates
    for (size_t j = i; j < limit; ++j) {
        const Token& t = toks[j];
        if (IsPunct(t, "<")) {
            ++depth;
        } else if (IsPunct(t, ">")) {
            if (--depth == 0) return j + 1;
        } else if (IsPunct(t, ">>")) {
            depth -= 2;
            if (depth <= 0) return j + 1;
        } else if (IsPunct(t, ";") || IsPunct(t, "{") || IsPunct(t, "}")) {
            break;  // statement boundary: this was a comparison
        }
    }
    return i + 1;
}

/** Pass A: collect variable names declared with std containers. */
void
ScanVarDecls(const std::vector<Token>& toks, TranslationUnit* tu)
{
    const size_t n = toks.size();
    for (size_t i = 0; i < n; ++i) {
        if (toks[i].kind != TokKind::kIdent || toks[i].preprocessor) {
            continue;
        }
        bool unordered = false;
        if (!IsContainerName(toks[i].text, &unordered)) continue;
        size_t j = i + 1;
        if (j < n && IsPunct(toks[j], "<")) {
            j = SkipAngles(toks, j);
        } else if (toks[i].text != "string") {
            // Template containers without arguments are not declarations.
            continue;
        }
        while (j < n && (IsPunct(toks[j], "*") || IsPunct(toks[j], "&") ||
                         IsPunct(toks[j], "&&") || IsIdent(toks[j], "const"))) {
            ++j;
        }
        if (j >= n || toks[j].kind != TokKind::kIdent ||
            IsControlKeyword(toks[j].text)) {
            continue;
        }
        // `std::vector<int> Name(` declares a function, not a variable.
        if (j + 1 < n && IsPunct(toks[j + 1], "(")) continue;
        tu->growable_vars.insert(toks[j].text);
        if (unordered) tu->unordered_vars.insert(toks[j].text);
    }
}

/**
 * Pass B: approximate receiver types. A declaration spelled
 * `TypeName [<...>] [*&const]* varname` with an uppercase-initial TypeName
 * maps varname -> TypeName, so member calls through the variable resolve to
 * that class's methods instead of name-merging across every class. Only
 * same-file declarations are visible — the documented under-approximation.
 */
void
ScanReceiverTypes(const std::vector<Token>& toks,
                  std::map<std::string, std::string>* var_types)
{
    const size_t n = toks.size();
    for (size_t i = 0; i + 1 < n; ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::kIdent || t.preprocessor ||
            std::isupper(static_cast<unsigned char>(t.text[0])) == 0) {
            continue;
        }
        size_t j = i + 1;
        if (IsPunct(toks[j], "<")) j = SkipAngles(toks, j);
        while (j < n && (IsPunct(toks[j], "*") || IsPunct(toks[j], "&") ||
                         IsPunct(toks[j], "&&") || IsIdent(toks[j], "const"))) {
            ++j;
        }
        if (j >= n || toks[j].kind != TokKind::kIdent ||
            IsControlKeyword(toks[j].text)) {
            continue;
        }
        // `Type Name(` is a function declaration, `Type Name::` an
        // out-of-line definition's return type.
        if (j + 1 < n &&
            (IsPunct(toks[j + 1], "(") || IsPunct(toks[j + 1], "::"))) {
            continue;
        }
        (*var_types)[toks[j].text] = t.text;
    }
}

/** Pass C: names bound to lambdas (`auto pad = [&](...) {...};`). */
void
ScanLocalCallables(const std::vector<Token>& toks, TranslationUnit* tu)
{
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].kind == TokKind::kIdent && IsPunct(toks[i + 1], "=") &&
            IsPunct(toks[i + 2], "[")) {
            tu->local_callables.insert(toks[i].text);
        }
    }
}

/** Scans a ctor init list starting at the `:` at @p i; returns the index of
 * the body `{`, or npos when this was not an init list after all. */
size_t
FindBodyAfterInitList(const std::vector<Token>& toks, size_t i)
{
    const size_t n = toks.size();
    size_t j = i + 1;
    while (j < n) {
        // Member-or-base name tokens up to the initializer group.
        while (j < n && (toks[j].kind == TokKind::kIdent ||
                         IsPunct(toks[j], "::") || IsPunct(toks[j], "<") ||
                         IsPunct(toks[j], ">") || IsPunct(toks[j], ","))) {
            ++j;
        }
        if (j >= n) return std::string::npos;
        if (IsPunct(toks[j], "(")) {
            j = SkipBalanced(toks, j, "(", ")");
        } else if (IsPunct(toks[j], "{")) {
            // Either a member brace-init or the body itself: the body is
            // the `{` that follows a completed init group (`)`/`}`), a
            // distinction the previous loop already consumed. A `{` right
            // after name tokens is a brace-init; skip it.
            j = SkipBalanced(toks, j, "{", "}");
        } else {
            return std::string::npos;
        }
        if (j >= n) return std::string::npos;
        if (IsPunct(toks[j], ",")) {
            ++j;
            continue;
        }
        if (IsPunct(toks[j], "{")) return j;
        return std::string::npos;
    }
    return std::string::npos;
}

/** From the token after a candidate's closing `)`, finds the body `{` of a
 * function definition, or npos when the candidate is a declaration, call,
 * or expression. */
size_t
FindBody(const std::vector<Token>& toks, size_t i)
{
    const size_t n = toks.size();
    size_t j = i;
    while (j < n) {
        const Token& t = toks[j];
        if (t.preprocessor) {
            ++j;
            continue;
        }
        if (t.kind == TokKind::kPunct) {
            if (t.text == "{") return j;
            if (t.text == ";" || t.text == "," || t.text == ")" ||
                t.text == "}" || t.text == "=") {
                return std::string::npos;  // declaration / `= default` / expr
            }
            if (t.text == ":") return FindBodyAfterInitList(toks, j);
            if (t.text == "(") {
                j = SkipBalanced(toks, j, "(", ")");  // noexcept(...)
                continue;
            }
            if (t.text == "[") {
                j = SkipBalanced(toks, j, "[", "]");  // [[attributes]]
                continue;
            }
            if (t.text == "<") {
                // Trailing-return template args may contain commas; skip
                // the whole balanced list so they don't read as a comma
                // terminator.
                j = SkipAngles(toks, j);
                continue;
            }
            if (t.text == "&" || t.text == "&&" || t.text == "*" ||
                t.text == "->" || t.text == "::" || t.text == ">" ||
                t.text == ">>" || t.text == "...") {
                ++j;
                continue;
            }
            return std::string::npos;
        }
        ++j;  // idents of trailing return types, const, noexcept, ...
    }
    return std::string::npos;
}

/** Collects call sites in the body token range [begin, end). */
void
CollectCalls(const std::vector<Token>& toks, size_t begin, size_t end,
             const std::map<std::string, std::string>& var_types,
             FunctionDef* fn)
{
    for (size_t j = begin; j + 1 < end; ++j) {
        const Token& t = toks[j];
        if (t.kind != TokKind::kIdent || t.preprocessor) continue;
        if (!IsPunct(toks[j + 1], "(")) continue;
        if (IsControlKeyword(t.text) || IsBuiltinType(t.text) ||
            t.text == "operator") {
            continue;
        }
        // `Type name(args)` is a parenthesized variable declaration, not a
        // call: a real call site never has two adjacent identifiers.
        if (j >= 1 && toks[j - 1].kind == TokKind::kIdent &&
            !IsControlKeyword(toks[j - 1].text)) {
            continue;
        }
        CallSite call;
        call.name = t.text;
        call.line = t.line;
        if (j >= 1) {
            const Token& prev = toks[j - 1];
            call.member_access = IsPunct(prev, ".") || IsPunct(prev, "->");
            if (IsPunct(prev, "::") && j >= 2 &&
                toks[j - 2].kind == TokKind::kIdent) {
                call.qualifier = toks[j - 2].text;
            } else if (call.member_access && j >= 2 &&
                       toks[j - 2].kind == TokKind::kIdent) {
                // Typed receiver: `app_->Advance()` with a visible
                // `AppModel* app_;` declaration resolves to AppModel.
                const auto it = var_types.find(toks[j - 2].text);
                if (it != var_types.end()) call.qualifier = it->second;
            }
        }
        fn->calls.push_back(std::move(call));
    }
}

struct Scope {
    std::string name;
    bool is_class = false;
    int depth = 0;  // brace depth just before the scope's `{`
};

}  // namespace

TranslationUnit
BuildTranslationUnit(std::string rel_path, LexedSource lexed)
{
    TranslationUnit tu;
    tu.rel_path = std::move(rel_path);
    tu.lexed = std::move(lexed);
    const std::vector<Token>& toks = tu.lexed.tokens;
    const size_t n = toks.size();

    ScanVarDecls(toks, &tu);
    std::map<std::string, std::string> var_types;
    ScanReceiverTypes(toks, &var_types);
    ScanLocalCallables(toks, &tu);

    int depth = 0;
    std::vector<Scope> scopes;
    size_t i = 0;
    while (i < n) {
        const Token& t = toks[i];
        if (t.preprocessor) {
            ++i;
            continue;
        }
        if (IsPunct(t, "{")) {
            ++depth;
            ++i;
            continue;
        }
        if (IsPunct(t, "}")) {
            depth = std::max(0, depth - 1);
            while (!scopes.empty() && scopes.back().depth == depth) {
                scopes.pop_back();
            }
            ++i;
            continue;
        }
        // Class/struct scope tracking (skipping `enum class`).
        if ((IsIdent(t, "class") || IsIdent(t, "struct")) &&
            !(i >= 1 && IsIdent(toks[i - 1], "enum"))) {
            std::vector<std::string> idents;
            size_t j = i + 1;
            while (j < n) {
                const Token& u = toks[j];
                if (u.kind == TokKind::kIdent) {
                    idents.push_back(u.text);
                    ++j;
                } else if (IsPunct(u, "[")) {
                    j = SkipBalanced(toks, j, "[", "]");
                } else {
                    break;
                }
            }
            if (!idents.empty() && idents.back() == "final") {
                idents.pop_back();
            }
            std::vector<std::string> bases;
            if (j < n && IsPunct(toks[j], ":")) {
                // Base clause: scan to the class body `{` (or a `;`). Each
                // top-level base is named by its last identifier outside
                // template arguments (`public ns::Base<T>` -> `Base`).
                int angles = 0;
                std::string base;
                while (j < n) {
                    const Token& u = toks[j];
                    if (IsPunct(u, "<")) ++angles;
                    if (IsPunct(u, ">")) angles = std::max(0, angles - 1);
                    if (IsPunct(u, ">>")) angles = std::max(0, angles - 2);
                    if (angles == 0 &&
                        (IsPunct(u, "{") || IsPunct(u, ";") || IsPunct(u, ","))) {
                        if (!base.empty()) bases.push_back(base);
                        base.clear();
                        if (!IsPunct(u, ",")) break;
                    }
                    if (angles == 0 && u.kind == TokKind::kIdent &&
                        !IsAccessOrVirtual(u.text)) {
                        base = u.text;
                    }
                    ++j;
                }
            }
            if (j < n && IsPunct(toks[j], "{") && !idents.empty()) {
                scopes.push_back(Scope{idents.back(), true, depth});
                std::vector<std::string>& known = tu.class_bases[idents.back()];
                known.insert(known.end(), bases.begin(), bases.end());
            }
            i = j < n ? j : n;  // the `{`/`;` handler advances from here
            continue;
        }
        // Function definition candidate: ident followed by `(`.
        if (t.kind == TokKind::kIdent && !IsControlKeyword(t.text) &&
            i + 1 < n && IsPunct(toks[i + 1], "(")) {
            const size_t after_params = SkipBalanced(toks, i + 1, "(", ")");
            const size_t body = FindBody(toks, after_params);
            if (body != std::string::npos) {
                const size_t body_end = SkipBalanced(toks, body, "{", "}");
                FunctionDef fn;
                fn.name = t.text;
                fn.line = t.line;
                if (i >= 2 && IsPunct(toks[i - 1], "::") &&
                    toks[i - 2].kind == TokKind::kIdent) {
                    fn.class_name = toks[i - 2].text;
                } else {
                    for (auto it = scopes.rbegin(); it != scopes.rend();
                         ++it) {
                        if (it->is_class) {
                            fn.class_name = it->name;
                            break;
                        }
                    }
                }
                fn.body_begin = body + 1;
                fn.body_end = body_end > body ? body_end - 1 : body;
                CollectCalls(toks, fn.body_begin, fn.body_end, var_types,
                             &fn);
                tu.functions.push_back(std::move(fn));
                i = body_end;
                continue;
            }
        }
        ++i;
    }

    // Attach hot-path (and stop) annotations to the next function
    // definition within six lines — room for a multi-line justification
    // plus a return type on its own line; anything further dangles (a
    // finding in the rule family).
    auto attach = [&tu](int line, bool stop) {
        FunctionDef* best = nullptr;
        for (FunctionDef& fn : tu.functions) {
            if (fn.line >= line && fn.line - line <= 6 &&
                (best == nullptr || fn.line < best->line)) {
                best = &fn;
            }
        }
        if (best == nullptr) {
            tu.dangling_hot_annotations.push_back(line);
        } else if (stop) {
            best->hot_path_stop = true;
        } else {
            best->hot_path = true;
        }
    };
    for (const int line : tu.lexed.hot_path_annotations) {
        attach(line, /*stop=*/false);
    }
    for (const int line : tu.lexed.hot_path_stops) {
        attach(line, /*stop=*/true);
    }
    return tu;
}

}  // namespace aeo::lint
