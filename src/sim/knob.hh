/**
 * @file
 * Declarative knob tables. Each run-time config key is declared once,
 * as a row binding the key to one field of a config struct, with its
 * doc string. The reader (readKnobs), the `--list-knobs` lines and the
 * `--help` text are all generated from the rows. Defaults are
 * rendered from the default-constructed struct, so member initialisers
 * stay the one place defaults live; only computed defaults carry
 * display text. Range checks stay in each struct's validate().
 */

#ifndef NIFDY_SIM_KNOB_HH
#define NIFDY_SIM_KNOB_HH

#include <span>
#include <sstream>
#include <string>
#include <type_traits>

#include "sim/config.hh"
#include "sim/log.hh"

namespace nifdy
{

/** One knob: a config key bound to a field of T. */
template <class T>
struct Knob
{
    const char *name;
    const char *doc;
    /** Read key @p name (present in @p conf) into @p obj. */
    void (*parse)(T &obj, const Config &conf, const char *name);
    /** Render the bound field of @p obj. */
    std::string (*show)(const T &obj);
    /** Display text of a computed default; replaces show(). */
    const char *defText = nullptr;
};

/** A knob table: the rows of one config struct. */
template <class T>
using KnobRows = std::span<const Knob<T>>;

/** Read key @p name into @p field with the getter for its type;
 * unsigned integers refuse negative values. */
template <class F>
void
parseKnobValue(F &field, const Config &conf, const char *name)
{
    if constexpr (std::is_same_v<F, std::string>) {
        field = conf.getString(name);
    } else if constexpr (std::is_same_v<F, bool>) {
        field = conf.getBool(name);
    } else if constexpr (std::is_floating_point_v<F>) {
        field = conf.getDouble(name);
    } else {
        long raw = conf.getInt(name);
        fatal_if(std::is_unsigned_v<F> && raw < 0,
                 "config key '%s' must be >= 0, got %ld", name, raw);
        field = static_cast<F>(raw);
    }
}

/** Render @p v the way Config::set() stores it. */
template <class F>
std::string
showKnobValue(const F &v)
{
    std::ostringstream os;
    os << std::boolalpha << v;
    return os.str();
}

template <class T, class F>
T knobOwner(F T::*);

/** A row bound to field @p Field, parsed and rendered by its type:
 * knob<&LossyConfig::dropProb>("lossy.dropProb", "doc"). */
template <auto Field>
constexpr auto
knob(const char *name, const char *doc)
{
    using T = decltype(knobOwner(Field));
    return Knob<T>{name, doc,
                   [](T &obj, const Config &conf, const char *n) {
                       parseKnobValue(obj.*Field, conf, n);
                   },
                   [](const T &obj) { return showKnobValue(obj.*Field); }};
}

/** Read every knob of @p rows that @p conf holds into @p obj. */
template <class T>
void
readKnobs(const Config &conf, std::type_identity_t<KnobRows<T>> rows,
          T &obj)
{
    for (const Knob<T> &k : rows)
        if (conf.find(k.name))
            k.parse(obj, conf, k.name);
}

/** Append one "name<TAB>default<TAB>doc" line per row of @p rows to
 * @p list (--list-knobs), defaults rendered from a default T. */
template <class T>
void
listKnobs(std::type_identity_t<KnobRows<T>> rows, std::string &list)
{
    const T defaults{};
    for (const Knob<T> &k : rows)
        list += std::string(k.name) + "\t" +
                (k.defText ? k.defText : k.show(defaults)) + "\t" + k.doc +
                "\n";
}

/** @p title, then each knob of a listKnobs() @p list with its
 * default and doc (--help). */
std::string knobHelp(const std::string &title, const std::string &list);

} // namespace nifdy

#endif // NIFDY_SIM_KNOB_HH
